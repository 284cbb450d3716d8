package artc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// The graph golden pins every edge BuildGraph emits, before reduction,
// for each corpus under each mode set of the ablation ladder
// (internal/experiments/ablation.go). testdata/graph_edges.golden was
// recorded with -update-graph-edges at 0c9fcb9, the last commit whose
// Analysis carried the Series map; a change to how BuildGraph looks a
// resource's series up must reproduce it line for line. Regenerate it
// only for a deliberate change to the ordering rules.
var updateGraphEdges = flag.Bool("update-graph-edges", false, "rewrite testdata/graph_edges.golden")

const graphEdgesGolden = "testdata/graph_edges.golden"

// generationsCorpus traces what the name rule orders and no other corpus
// here does across threads (their multi-generation names are all rebound
// by the thread that unbound them): three threads take turns, each
// binding again — by create, rename, link, symlink or a directory move
// that carries a subtree — a name the previous one unlinked or renamed
// away. /g/once is bound exactly twice, by different threads.
func generationsCorpus() (*trace.Trace, *snapshot.Snapshot, error) {
	conf, err := stack.ParseTarget("linux-ext4-ssd-noop", 0, 0)
	if err != nil {
		return nil, nil, err
	}
	k := sim.NewKernel()
	sys := stack.New(k, conf)
	if err := sys.SetupMkdirAll("/g/d"); err != nil {
		return nil, nil, err
	}
	if err := sys.SetupCreate("/g/d/leaf", 8192); err != nil {
		return nil, nil, err
	}
	snap := snapshot.Capture(sys)
	tr := &trace.Trace{Platform: string(conf.Platform)}
	sys.SetTracer(tr)
	const workers, rounds, slot = 3, 4, 5 * time.Millisecond
	for w := 0; w < workers; w++ {
		k.Spawn("w", func(th *sim.Thread) {
			for round := 0; round < rounds; round++ {
				turn := round*workers + w
				th.Sleep(time.Duration(turn)*slot - k.Now())
				if turn > 0 {
					sys.Unlink(th, "/g/old") // the previous turn's rename target
					sys.Unlink(th, "/g/hard")
					sys.Unlink(th, "/g/soft")
				}
				fd, _ := sys.Open(th, "/g/cur", trace.ORdwr|trace.OCreat, 0o644)
				sys.Write(th, fd, 4096)
				sys.Close(th, fd)
				sys.Link(th, "/g/cur", "/g/hard")
				sys.Symlink(th, "/g/cur", "/g/soft")
				sys.Stat(th, "/g/soft")
				sys.Rename(th, "/g/cur", "/g/old")
				// The directory swaps names every turn, its leaf with it.
				from, to := "/g/d", "/g/e"
				if turn%2 == 1 {
					from, to = to, from
				}
				sys.Rename(th, from, to)
				sys.Stat(th, to+"/leaf")
				switch turn {
				case 0, 2:
					fd, _ := sys.Open(th, "/g/once", trace.OWronly|trace.OCreat, 0o644)
					sys.Close(th, fd)
				case 1:
					sys.Unlink(th, "/g/once")
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		return nil, nil, err
	}
	tr.Renumber()
	return tr, snap, nil
}

// pinCorpus is one input of the pinned corpora: every Magritte spec, the
// components and pipeline family files, and generationsCorpus.
type pinCorpus struct {
	name string
	load func() (*trace.Trace, *snapshot.Snapshot, error)
}

// pinnedCorpora lists the corpora the goldens of this package are
// recorded on; short keeps four Magritte specs and the rest.
func pinnedCorpora(short bool) []pinCorpus {
	var corpora []pinCorpus
	gen := magritte.DefaultSuiteOptions().Gen
	for _, spec := range magritte.Specs {
		corpora = append(corpora, pinCorpus{"magritte/" + spec.FullName(), func() (*trace.Trace, *snapshot.Snapshot, error) {
			g, err := magritte.Generate(spec, gen)
			if err != nil {
				return nil, nil, err
			}
			return g.Trace, g.Snapshot, nil
		}})
	}
	for _, file := range []string{"components_small", "pipeline_small"} {
		corpora = append(corpora, pinCorpus{file, func() (*trace.Trace, *snapshot.Snapshot, error) {
			f, err := os.Open("../workload/testdata/" + file + ".trace")
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			tr, err := trace.Decode(f)
			return tr, nil, err // Compile infers the snapshot
		}})
	}
	corpora = append(corpora, pinCorpus{"generations", generationsCorpus})
	if short {
		corpora = append(corpora[:4:4], corpora[len(magritte.Specs):]...)
	}
	return corpora
}

// checkAdjacency holds a graph's CSR rows to the per-action [][]int
// index newGraph built at e4d1ce9 (one append per edge, in Edges order),
// rebuilt here as the oracle.
func checkAdjacency(t *testing.T, name string, g *core.Graph) {
	t.Helper()
	deps, succs := make([][]int, g.N), make([][]int, g.N)
	for ei, e := range g.Edges {
		deps[e.To] = append(deps[e.To], ei)
		succs[e.From] = append(succs[e.From], ei)
	}
	same := func(row []int32, want []int) bool {
		return slices.EqualFunc(row, want, func(a int32, b int) bool { return int(a) == b })
	}
	for i := 0; i < g.N; i++ {
		if !same(g.Deps(i), deps[i]) || !same(g.Succs(i), succs[i]) || g.Indegree(i) != len(deps[i]) {
			t.Fatalf("%s: action %d: Deps %v Succs %v Indegree %d, oracle %v %v",
				name, i, g.Deps(i), g.Succs(i), g.Indegree(i), deps[i], succs[i])
		}
	}
}

func TestGraphEdgesPinned(t *testing.T) {
	ladder := []core.ModeSet{
		{},
		{FDStage: true},
		{FDStage: true, FDSeq: true},
		{FDStage: true, FDSeq: true, PathStageName: true},
		core.DefaultModes(),
		{ProgramSeq: true},
	}
	corpora := pinnedCorpora(testing.Short() && !*updateGraphEdges)

	type line struct{ key, val string } // "corpus modes", "edges digest"
	var got []line
	for _, c := range corpora {
		tr, snap, err := c.load()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := artc.Compile(tr, snap, core.DefaultModes())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkAdjacency(t, c.name+" reduced", b.Graph)
		for _, modes := range ladder {
			g := core.BuildGraph(b.Analysis, modes)
			checkAdjacency(t, c.name+" "+artc.ModesString(modes), g)
			h := sha256.New()
			var num [8]byte
			for _, e := range g.Edges {
				for _, v := range []int{e.From, e.To, int(e.Kind), int(e.Res.Kind), e.Res.Gen, len(e.Res.Name)} {
					binary.LittleEndian.PutUint64(num[:], uint64(v))
					h.Write(num[:])
				}
				h.Write([]byte(e.Res.Name))
			}
			got = append(got, line{c.name + " " + artc.ModesString(modes), fmt.Sprintf("%d %x", len(g.Edges), h.Sum(nil))})
		}
	}

	if *updateGraphEdges {
		var sb strings.Builder
		for _, g := range got {
			fmt.Fprintf(&sb, "%s %s\n", g.key, g.val)
		}
		if err := os.WriteFile(graphEdgesGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(graphEdgesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(l)
		if len(fields) != 4 {
			t.Fatalf("malformed golden line %q", l)
		}
		want[fields[0]+" "+fields[1]] = fields[2] + " " + fields[3]
	}
	for _, g := range got {
		if w := want[g.key]; w != g.val {
			t.Errorf("%s: unreduced graph moved:\n got %s\nwant %s", g.key, g.val, w)
		}
	}
}
