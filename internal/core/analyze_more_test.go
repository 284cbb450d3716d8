package core

import (
	"testing"
	"time"

	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

func hasEdge(g *Graph, from, to int) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			return true
		}
	}
	return false
}

func TestExchangedataGenerations(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "stat", path: "/a", ret: 100},                    // 0: use /a@1
		{tid: 1, call: "exchangedata", path: "/a", path2: "/b", ret: 0}, // 1
		{tid: 2, call: "stat", path: "/a", ret: 200},                    // 2: use /a@2
	})
	snap := []snapshot.Entry{
		{Kind: snapshot.KindFile, Path: "/a", Size: 100},
		{Kind: snapshot.KindFile, Path: "/b", Size: 200},
	}
	an := analyze(t, tr, snap)
	if gens := an.PathGens["/a"]; len(gens) != 2 {
		t.Fatalf("/a generations = %v, want 2", gens)
	}
	if gens := an.PathGens["/b"]; len(gens) != 2 {
		t.Fatalf("/b generations = %v, want 2", gens)
	}
	g := BuildGraph(an, DefaultModes())
	// Name ordering: stat of /a@2 (action 2, T2) must wait for the
	// exchange (action 1, T1), which ended generation 1.
	if !hasEdge(g, 1, 2) {
		t.Fatalf("missing generation edge exchange->stat: %v", g.Edges)
	}
}

func TestRenameChainGenerations(t *testing.T) {
	// /x -> /y -> /z: each rename retargets names; /y has two
	// generations (pre-existing file, then the renamed-in file).
	tr := buildTrace([]rspec{
		{tid: 1, call: "rename", path: "/x", path2: "/y", ret: 0}, // replaces /y
		{tid: 2, call: "rename", path: "/y", path2: "/z", ret: 0},
		{tid: 3, call: "stat", path: "/z", ret: 0},
	})
	snap := []snapshot.Entry{
		{Kind: snapshot.KindFile, Path: "/x", Size: 1},
		{Kind: snapshot.KindFile, Path: "/y", Size: 2},
	}
	an := analyze(t, tr, snap)
	g := BuildGraph(an, DefaultModes())
	if !hasEdge(g, 0, 1) {
		t.Errorf("second rename does not depend on first: %v", g.Edges)
	}
	if !hasEdge(g, 1, 2) {
		t.Errorf("stat of /z does not depend on the rename creating it: %v", g.Edges)
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestDup2Generations(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/a", ret: 3},    // fd3@1 create
		{tid: 1, call: "open", path: "/b", ret: 4},    // fd4@1 create
		{tid: 2, call: "read", fd: 4, ret: 10},        // fd4@1 use
		{tid: 1, call: "dup2", fd: 3, fd2: 4, ret: 4}, // deletes fd4@1, creates fd4@2
		{tid: 2, call: "read", fd: 4, ret: 10},        // fd4@2 use
	})
	snap := []snapshot.Entry{
		{Kind: snapshot.KindFile, Path: "/a", Size: 100},
		{Kind: snapshot.KindFile, Path: "/b", Size: 100},
	}
	an := analyze(t, tr, snap)
	if s := seriesFor(an, KFD, "4", 1); !eq(s, 1, 2, 3) {
		t.Errorf("fd4@1 series = %v, want [1 2 3]", s)
	}
	if s := seriesFor(an, KFD, "4", 2); !eq(s, 3, 4) {
		t.Errorf("fd4@2 series = %v, want [3 4]", s)
	}
	g := BuildGraph(an, ModeSet{FDStage: true})
	// The read of fd4@2 (4, T2) must wait for the dup2 create (3, T1).
	if !hasEdge(g, 3, 4) {
		t.Errorf("missing fd4@2 create edge: %v", g.Edges)
	}
	// The dup2 (delete of fd4@1) must wait for the earlier read (2, T2).
	if !hasEdge(g, 2, 3) {
		t.Errorf("missing fd4@1 delete edge: %v", g.Edges)
	}
}

func TestChdirRelativePathsCanonicalized(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "chdir", path: "/work", ret: 0},
		{tid: 1, call: "open", path: "data.txt", ret: 3},
		{tid: 1, call: "close", fd: 3, ret: 0},
	})
	snap := []snapshot.Entry{
		{Kind: snapshot.KindDir, Path: "/work"},
		{Kind: snapshot.KindFile, Path: "/work/data.txt", Size: 64},
	}
	an := analyze(t, tr, snap)
	if p := an.Actions[1].CanonPath; p < 0 || an.Paths[p] != "/work/data.txt" {
		t.Fatalf("canonicalized path = %d of %q", p, an.Paths)
	}
	// The path resource uses the canonical name.
	if s := seriesFor(an, KPath, "/work/data.txt", 1); len(s) == 0 {
		t.Fatal("no path series under canonical name")
	}
}

func TestLinkCreatesPathNotFile(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "link", path: "/a", path2: "/b", ret: 0},
		{tid: 2, call: "stat", path: "/b", ret: 0},
		{tid: 2, call: "unlink", path: "/a", ret: 0}, // file survives via /b
		{tid: 3, call: "stat", path: "/b", ret: 0},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/a", Size: 10}}
	an := analyze(t, tr, snap)
	g := BuildGraph(an, DefaultModes())
	if !hasEdge(g, 0, 1) {
		t.Errorf("stat /b does not depend on link creating it")
	}
	// The unlink of /a with nlink 2 must be a Use (not Delete) of the
	// file: the final stat via /b still touches a live file.
	var unlinkTouches []Touch
	for _, tc := range an.Touches(2) {
		if an.Resources[tc.Idx].Kind == KFile {
			unlinkTouches = append(unlinkTouches, tc)
		}
	}
	for _, tc := range unlinkTouches {
		if tc.Role == RoleDelete {
			t.Errorf("unlink of multi-link file marked file delete: %v", an.Resources[tc.Idx])
		}
	}
}

func TestUnlinkLastLinkIsFileDelete(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "open", path: "/f", ret: 3},
		{tid: 2, call: "read", fd: 3, ret: 5},
		{tid: 2, call: "close", fd: 3, ret: 0},
		{tid: 1, call: "unlink", path: "/f", ret: 0},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindFile, Path: "/f", Size: 10}}
	an := analyze(t, tr, snap)
	foundDelete := false
	for _, tc := range an.Touches(3) {
		if an.Resources[tc.Idx].Kind == KFile && tc.Role == RoleDelete {
			foundDelete = true
		}
	}
	if !foundDelete {
		t.Fatal("unlink of last link not marked as file delete")
	}
	// With file_seq the unlink (T1) waits for the cross-thread read (T2).
	g := BuildGraph(an, ModeSet{FileSeq: true})
	if !hasEdge(g, 2, 3) && !hasEdge(g, 1, 3) {
		t.Errorf("unlink not ordered after uses: %v", g.Edges)
	}
}

func TestMkdirAllParentTouch(t *testing.T) {
	tr := buildTrace([]rspec{
		{tid: 1, call: "mkdir", path: "/top/sub", ret: 0},
		{tid: 2, call: "open", path: "/top/sub/f", flags: trace.OCreat, ret: 3},
	})
	snap := []snapshot.Entry{{Kind: snapshot.KindDir, Path: "/top"}}
	an := analyze(t, tr, snap)
	g := BuildGraph(an, DefaultModes())
	// The create inside the new directory (T2) depends on the mkdir (T1)
	// via the parent-directory file resource or the path resource.
	if !hasEdge(g, 0, 1) {
		t.Fatalf("create in fresh dir lacks dependency on mkdir: %v", g.Edges)
	}
}

func TestTemporalPreservesOverlapSemantics(t *testing.T) {
	// Issue-kind edges let traced-overlapping calls overlap at replay:
	// ValidateOrder accepts an order where action 1 is issued before
	// action 0 completes (they overlapped in the trace).
	tr := buildTrace([]rspec{
		{tid: 1, call: "read", fd: 3, ret: 1},
		{tid: 2, call: "read", fd: 4, ret: 1},
	})
	tr.Records[0].Start, tr.Records[0].End = 0, 1000000
	tr.Records[1].Start, tr.Records[1].End = 500, 900000
	fs := vfs.New()
	an, err := Analyze(tr, fs)
	if err != nil {
		t.Fatal(err)
	}
	g := TemporalGraph(an)
	issue := []int64{0, 10}
	done := []int64{1000, 500} // 1 finishes before 0: fine
	toDur := func(xs []int64) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x)
		}
		return out
	}
	if err := g.ValidateOrder(toDur(issue), toDur(done)); err != nil {
		t.Fatalf("overlap rejected: %v", err)
	}
	// But issuing 1 before 0 violates issue order.
	bad := []int64{100, 10}
	if err := g.ValidateOrder(toDur(bad), toDur(done)); err == nil {
		t.Fatal("issue-order violation accepted")
	}
}
