// crossplatform: replay a Mac OS X application trace on a Linux
// machine. The trace uses OS X-specific calls (getattrlist,
// exchangedata, F_FULLFSYNC, reads from the non-blocking /dev/random);
// the replayer emulates each with the nearest Linux equivalent, and the
// /dev/random -> /dev/urandom symlink trick keeps replay from blocking
// (§4.3.4, §5.1).
//
//	go run ./examples/crossplatform
package main

import (
	"fmt"
	"log"

	"rootreplay"
	"rootreplay/internal/magritte"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
)

func main() {
	spec, ok := magritte.SpecByName("itunes_startsmall1")
	if !ok {
		log.Fatal("unknown Magritte trace")
	}
	gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.05, Seed: 2026})
	if err != nil {
		log.Fatal(err)
	}
	osxCalls := 0
	for _, r := range gen.Trace.Records {
		switch gen.Trace.Str(r.Call) {
		case "getattrlist", "setattrlist", "exchangedata", "searchfs", "fsctl", "vfsconf", "getdirentriesattr":
			osxCalls++
		}
	}
	fmt.Printf("generated %s: %d records on platform %q (%d OS X-specific calls)\n",
		spec.FullName(), len(gen.Trace.Records), gen.Trace.Platform, osxCalls)

	b, err := rootreplay.Compile(gen.Trace, gen.Snapshot, rootreplay.DefaultModes())
	if err != nil {
		log.Fatal(err)
	}

	linux := stack.Config{
		Name: "linux-ext4-ssd", Platform: stack.Linux, Profile: stack.Ext4,
		Device: stack.DeviceSSD, Scheduler: stack.SchedNoop,
	}
	for _, fix := range []bool{true, false} {
		sys := stack.New(sim.NewKernel(), linux)
		if err := magritte.InitTarget(sys, b, fix); err != nil {
			log.Fatal(err)
		}
		rep, err := rootreplay.Replay(sys, b, rootreplay.Options{})
		if err != nil {
			log.Fatal(err)
		}
		label := "with /dev/random symlink fix"
		if !fix {
			label = "without fix (blocking /dev/random)"
		}
		fmt.Printf("%-36s elapsed=%-14v emulated-calls=%d errors=%d\n",
			label, rep.Elapsed, rep.Emulated, rep.Errors)
	}
}
