// orderingmodes: demonstrate ROOT's ordering rules doing their job.
//
// A trace with a cross-thread descriptor handoff is replayed under a
// ladder of mode sets, from "thread order only" (which races and breaks
// semantics) through ARTC's defaults to program_seq (a total order that
// kills all concurrency). The printout shows, per mode set, how many
// constraint edges were enforced, semantic correctness, elapsed time,
// and the achieved system-call concurrency — the
// overconstraint/underconstraint tradeoff of §3.2 in one table.
//
//	go run ./examples/orderingmodes
package main

import (
	"fmt"
	"log"

	"rootreplay"
	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

func main() {
	conf := stack.DefaultConfig()
	tr, snap := traceHandoffProgram(conf)
	fmt.Printf("traced %d calls across %d threads\n\n", len(tr.Records), len(tr.Threads()))

	b, err := rootreplay.Compile(tr, snap, rootreplay.DefaultModes())
	if err != nil {
		log.Fatal(err)
	}

	ladder := []struct {
		name  string
		modes core.ModeSet
	}{
		{"thread_seq only", core.ModeSet{}},
		{"fd_stage", core.ModeSet{FDStage: true}},
		{"fd_seq", core.ModeSet{FDSeq: true}},
		{"path_stage+name", core.ModeSet{PathStageName: true}},
		{"artc defaults", core.DefaultModes()},
		{"program_seq", core.ModeSet{ProgramSeq: true}},
	}
	fmt.Printf("%-18s %7s %10s %8s %12s\n", "modes", "edges", "elapsed", "errors", "concurrency")
	for _, step := range ladder {
		g := core.BuildGraph(b.Analysis, step.modes)
		sys := stack.New(sim.NewKernel(), conf)
		if err := rootreplay.InitSystem(sys, b); err != nil {
			log.Fatal(err)
		}
		modes := step.modes
		rep, err := rootreplay.Replay(sys, b, artc.Options{Method: artc.MethodARTC, Modes: &modes})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %7d %10v %8d %12.2f\n",
			step.name, len(g.Edges), rep.Elapsed.Round(1000), rep.Errors, rep.Concurrency())
	}
}

// traceHandoffProgram records a three-stage pipeline: an opener thread
// opens files and passes descriptors to a reader, which passes them to a
// closer — the pattern from the paper's introduction ("one thread opens
// a file, a second thread writes to it, and a third closes it").
func traceHandoffProgram(conf stack.Config) (*trace.Trace, *snapshot.Snapshot) {
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	for i := 0; i < 12; i++ {
		if err := sys.SetupCreate(fmt.Sprintf("/data/f%02d", i), 256<<10); err != nil {
			log.Fatal(err)
		}
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(tr)

	toRead := sim.NewChan[int64](k, 4)
	toClose := sim.NewChan[int64](k, 4)
	k.Spawn("opener", func(t *sim.Thread) {
		for i := 0; i < 12; i++ {
			fd, err := sys.Open(t, fmt.Sprintf("/data/f%02d", i), trace.ORdonly, 0)
			if err == 0 {
				toRead.Send(t, fd)
			}
		}
		toRead.Close()
	})
	k.Spawn("reader", func(t *sim.Thread) {
		for {
			fd, ok := toRead.Recv(t)
			if !ok {
				toClose.Close()
				return
			}
			sys.Pread(t, fd, 64<<10, 0)
			sys.Pread(t, fd, 64<<10, 128<<10)
			toClose.Send(t, fd)
		}
	})
	k.Spawn("closer", func(t *sim.Thread) {
		for {
			fd, ok := toClose.Recv(t)
			if !ok {
				return
			}
			sys.Close(t, fd)
		}
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	tr.Renumber()
	return tr, snap
}
