package shard_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/shard"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// checkPlan asserts the partition invariants: every action in exactly
// one component, components disjoint and in trace order, CompOf
// consistent, and every graph edge either intra-component or a
// registered cross edge ordered by edge index.
func checkPlan(t *testing.T, g *core.Graph, p *shard.Plan) {
	t.Helper()
	if p.N != g.N {
		t.Fatalf("plan N = %d, graph N = %d", p.N, g.N)
	}
	if len(p.CompOf) != p.N {
		t.Fatalf("CompOf has %d entries for %d actions", len(p.CompOf), p.N)
	}
	seen := make([]bool, p.N)
	for c, members := range p.Components {
		if len(members) == 0 {
			t.Fatalf("component %d is empty", c)
		}
		prev := int32(-1)
		for _, a := range members {
			if a < 0 || int(a) >= p.N {
				t.Fatalf("component %d holds out-of-range action %d", c, a)
			}
			if seen[a] {
				t.Fatalf("action %d appears in two components", a)
			}
			seen[a] = true
			if a <= prev {
				t.Fatalf("component %d members not in trace order: %d after %d", c, a, prev)
			}
			prev = a
			if p.CompOf[a] != int32(c) {
				t.Fatalf("CompOf[%d] = %d, but action listed in component %d", a, p.CompOf[a], c)
			}
		}
	}
	for a, ok := range seen {
		if !ok {
			t.Fatalf("action %d in no component", a)
		}
	}
	// Components must be ordered by smallest member, and component c's
	// smallest member must precede component c+1's.
	for c := 1; c < len(p.Components); c++ {
		if p.Components[c][0] <= p.Components[c-1][0] {
			t.Fatalf("components %d and %d out of order (min members %d, %d)",
				c-1, c, p.Components[c-1][0], p.Components[c][0])
		}
	}
	// Every edge is intra-component or a registered cross edge.
	cross := make(map[int32]shard.CrossEdge, len(p.Cross))
	prevEdge := int32(-1)
	for _, ce := range p.Cross {
		if ce.Edge <= prevEdge {
			t.Fatalf("cross edges not ordered by edge index: %d after %d", ce.Edge, prevEdge)
		}
		prevEdge = ce.Edge
		cross[ce.Edge] = ce
	}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		cf, ct := p.CompOf[e.From], p.CompOf[e.To]
		ce, registered := cross[int32(ei)]
		if cf == ct {
			if registered {
				t.Fatalf("edge %d (%d->%d) is intra-component but registered as cross", ei, e.From, e.To)
			}
			continue
		}
		if !registered {
			t.Fatalf("edge %d (%d->%d) crosses components %d->%d but is not registered",
				ei, e.From, e.To, cf, ct)
		}
		if ce.From != cf || ce.To != ct {
			t.Fatalf("cross edge %d registered as %d->%d, actual %d->%d", ei, ce.From, ce.To, cf, ct)
		}
		if e.Res.Kind != core.KProgram {
			t.Fatalf("edge %d crosses components but carries stateful resource %v", ei, e.Res)
		}
	}
	st := p.Stats()
	if st.Components != len(p.Components) || st.CrossEdges != len(p.Cross) {
		t.Fatalf("stats %+v inconsistent with plan", st)
	}
}

// genIsolated traces a program of nComp fully independent groups: each
// group has its own thread and touches only its own directory, so the
// resource-closure partition must keep the groups apart.
func genIsolated(t *testing.T, nComp, opsPer int) (*trace.Trace, *snapshot.Snapshot) {
	t.Helper()
	k := sim.NewKernel()
	sys := stack.New(k, stack.Config{
		Name: "gen", Platform: stack.Linux, Profile: stack.Ext4,
		Device: stack.DeviceSSD, Scheduler: stack.SchedNoop,
	})
	for c := 0; c < nComp; c++ {
		if err := sys.SetupMkdirAll(fmt.Sprintf("/comp%d/sub", c)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			if err := sys.SetupCreate(fmt.Sprintf("/comp%d/f%d", c, f), 1<<16); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(stack.Linux)}
	sys.SetTracer(tr)
	for c := 0; c < nComp; c++ {
		c := c
		rng := rand.New(rand.NewSource(int64(c)*104729 + 1))
		k.Spawn(fmt.Sprintf("comp-%d", c), func(th *sim.Thread) {
			dir := fmt.Sprintf("/comp%d", c)
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(5) {
				case 0:
					fd, errno := sys.Open(th, fmt.Sprintf("%s/f%d", dir, rng.Intn(3)), trace.ORdonly, 0)
					if errno == 0 {
						sys.Pread(th, fd, 4096, int64(rng.Intn(8))*4096)
						sys.Close(th, fd)
					}
				case 1:
					p := fmt.Sprintf("%s/sub/new%d", dir, i)
					fd, errno := sys.Open(th, p, trace.OWronly|trace.OCreat, 0o644)
					if errno == 0 {
						sys.Write(th, fd, 1024)
						sys.Close(th, fd)
					}
				case 2:
					sys.Stat(th, fmt.Sprintf("%s/f%d", dir, rng.Intn(3)))
				case 3:
					sys.Stat(th, fmt.Sprintf("%s/missing%d", dir, rng.Intn(2)))
				case 4:
					fd, errno := sys.Open(th, fmt.Sprintf("%s/f0", dir), trace.ORdwr, 0)
					if errno == 0 {
						sys.Pwrite(th, fd, 2048, int64(rng.Intn(4))*4096)
						sys.Fsync(th, fd)
						sys.Close(th, fd)
					}
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	return tr, snap
}

func TestPartitionIsolatedGroups(t *testing.T) {
	const nComp = 5
	tr, snap := genIsolated(t, nComp, 60)
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	p := shard.Partition(b.Analysis, b.Graph)
	checkPlan(t, b.Graph, p)
	if got := len(p.Components); got != nComp {
		t.Fatalf("got %d components for %d isolated groups", got, nComp)
	}
	if len(p.Cross) != 0 {
		t.Fatalf("isolated groups produced %d cross edges", len(p.Cross))
	}
	// With no cross edges every component is its own cluster.
	if cl := p.Clusters(); len(cl) != nComp {
		t.Fatalf("got %d clusters, want %d", len(cl), nComp)
	}
}

func TestPartitionProgramSeqCrossEdges(t *testing.T) {
	const nComp = 4
	tr, snap := genIsolated(t, nComp, 40)
	modes := core.ModeSet{ProgramSeq: true}
	b, err := artc.Compile(tr, snap, modes)
	if err != nil {
		t.Fatal(err)
	}
	g := b.GraphFor(modes)
	p := shard.Partition(b.Analysis, g)
	checkPlan(t, g, p)
	if got := len(p.Components); got != nComp {
		t.Fatalf("got %d components, want %d (program edges must not merge groups)", got, nComp)
	}
	if len(p.Cross) == 0 {
		t.Fatal("program_seq chain over interleaved groups produced no cross edges")
	}
	// The program chain connects everything: one cluster.
	if cl := p.Clusters(); len(cl) != 1 {
		t.Fatalf("got %d clusters, want 1 (chain links all components)", len(cl))
	}
}

func TestPartitionTemporalCrossEdges(t *testing.T) {
	const nComp = 3
	tr, snap := genIsolated(t, nComp, 30)
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	g := core.TemporalGraph(b.Analysis)
	p := shard.Partition(b.Analysis, g)
	checkPlan(t, g, p)
	if got := len(p.Components); got != nComp {
		t.Fatalf("got %d components, want %d", got, nComp)
	}
	if len(p.Cross) == 0 {
		t.Fatal("temporal adjacency over interleaved groups produced no cross edges")
	}
}

// TestPartitionSharedState checks the other direction: groups coupled
// through a shared file, a shared descriptor handoff, or a contended
// path name must land in one component.
func TestPartitionSharedState(t *testing.T) {
	k := sim.NewKernel()
	sys := stack.New(k, stack.Config{
		Name: "gen", Platform: stack.Linux, Profile: stack.Ext4,
		Device: stack.DeviceSSD, Scheduler: stack.SchedNoop,
	})
	if err := sys.SetupMkdirAll("/a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupMkdirAll("/b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupCreate("/a/shared", 1<<16); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(stack.Linux)}
	sys.SetTracer(tr)
	done := sim.NewWaitGroup(k)
	done.Add(1)
	k.Spawn("writer", func(th *sim.Thread) {
		fd, _ := sys.Open(th, "/a/shared", trace.ORdwr, 0)
		sys.Pwrite(th, fd, 4096, 0)
		sys.Close(th, fd)
		done.Done()
	})
	k.Spawn("reader", func(th *sim.Thread) {
		done.Wait(th)
		// Same inode through a different directory entry is still the
		// same resource.
		fd, _ := sys.Open(th, "/a/shared", trace.ORdonly, 0)
		sys.Pread(th, fd, 4096, 0)
		sys.Close(th, fd)
		sys.Stat(th, "/b/only-name") // fails; names /b, private below
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr.Renumber()
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	p := shard.Partition(b.Analysis, b.Graph)
	checkPlan(t, b.Graph, p)
	if len(p.Components) != 1 {
		t.Fatalf("shared-file groups split into %d components", len(p.Components))
	}
}

// TestPartitionKeepsFailedCallWithItsDescriptor: a failed call touches
// nothing, but replay remaps its descriptor through Action.FDHint so it
// fails the way it did when traced; it has to land in the component that
// opens the descriptor even when its thread does nothing else there.
func TestPartitionKeepsFailedCallWithItsDescriptor(t *testing.T) {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	tr := &trace.Trace{Platform: "linux"}
	s := tr.Intern
	tr.Records = []trace.Record{
		{TID: 1, Call: s("open"), Path: s("/dir"), Flags: trace.ORdonly | trace.ODir, Ret: 3, Start: us(0), End: us(1)},
		{TID: 2, Call: s("read"), FD: 3, Size: 64, Ret: -1, Err: s("EISDIR"), Start: us(2), End: us(3)},
		{TID: 1, Call: s("close"), FD: 3, Start: us(4), End: us(5)},
	}
	b, err := artc.Compile(tr, nil, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	if hint := b.Analysis.Actions[1].FDHint; hint < 0 || len(b.Analysis.Touches(1)) != 0 {
		t.Fatalf("fixture: failed read has hint %d and %d touches, want a hint and none", hint, len(b.Analysis.Touches(1)))
	}
	p := shard.Partition(b.Analysis, b.Graph)
	checkPlan(t, b.Graph, p)
	if len(p.Components) != 1 {
		t.Fatalf("failed read split from its descriptor: %d components", len(p.Components))
	}
}

// TestPartitionMagritte runs the invariants over real Magritte traces
// under every graph flavor the replayer supports.
func TestPartitionMagritte(t *testing.T) {
	for _, name := range []string{"itunes_startsmall1", "pages_docphoto15"} {
		spec, ok := magritte.SpecByName(name)
		if !ok {
			t.Fatalf("no spec %s", name)
		}
		gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: 0.05, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
		if err != nil {
			t.Fatal(err)
		}
		graphs := map[string]*core.Graph{
			"artc":          b.Graph,
			"temporal":      core.TemporalGraph(b.Analysis),
			"unconstrained": core.UnconstrainedGraph(b.Analysis),
			"program":       b.GraphFor(core.ModeSet{ProgramSeq: true}),
		}
		for gname, g := range graphs {
			p := shard.Partition(b.Analysis, g)
			checkPlan(t, g, p)
			t.Logf("%s/%s: %d actions, %d components, %d cross edges, largest %d",
				name, gname, p.N, len(p.Components), len(p.Cross), p.Stats().Largest)
		}
	}
}

// TestPartitionDeterministic: same inputs, same plan.
func TestPartitionDeterministic(t *testing.T) {
	tr, snap := genIsolated(t, 4, 50)
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	p1 := shard.Partition(b.Analysis, b.Graph)
	p2 := shard.Partition(b.Analysis, b.Graph)
	if len(p1.Components) != len(p2.Components) || len(p1.Cross) != len(p2.Cross) {
		t.Fatal("partition not deterministic")
	}
	for i := range p1.CompOf {
		if p1.CompOf[i] != p2.CompOf[i] {
			t.Fatalf("CompOf[%d] differs across runs", i)
		}
	}
}
