package artc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rootreplay/internal/core"
	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// randomProgram runs a randomized multithreaded I/O program on sys:
// threads share files, descriptors (via a handoff cell), and path names,
// with coordination so the trace embeds real cross-thread dependencies.
func randomProgram(sys *stack.System, threads, opsPerThread int, seed int64) {
	k := sys.K
	// Shared descriptor handoff cell: a writer occasionally publishes an
	// open fd; the next thread to find it reads and closes it.
	var sharedFD int64 = -1
	var fdOwnerDone bool
	fdCond := sim.NewCond(k)

	for w := 0; w < threads; w++ {
		w := w
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		k.Spawn(fmt.Sprintf("rp-%d", w), func(t *sim.Thread) {
			myFile := fmt.Sprintf("/data/own%d", w)
			for i := 0; i < opsPerThread; i++ {
				switch rng.Intn(10) {
				case 0: // publish an open descriptor for another thread
					if sharedFD == -1 {
						fd, err := sys.Open(t, "/data/shared", trace.ORdonly, 0)
						if err == 0 {
							sharedFD = fd
							fdCond.Broadcast()
						}
					}
				case 1: // consume the published descriptor
					if sharedFD != -1 {
						fd := sharedFD
						sharedFD = -1
						sys.Pread(t, fd, 4096, int64(rng.Intn(200))*4096)
						sys.Close(t, fd)
					}
				case 2: // atomic-save to a CONTENDED path name
					tmp := fmt.Sprintf("/data/save%d.tmp", w)
					fd, err := sys.Open(t, tmp, trace.OWronly|trace.OCreat|trace.OTrunc, 0o644)
					if err == 0 {
						sys.Write(t, fd, 4096)
						sys.Close(t, fd)
						sys.Rename(t, tmp, "/data/current")
					}
				case 3:
					sys.Stat(t, "/data/current")
				case 4:
					sys.Stat(t, fmt.Sprintf("/data/missing%d", rng.Intn(3)))
				case 5:
					fd, err := sys.Open(t, myFile, trace.ORdwr, 0)
					if err == 0 {
						sys.Pwrite(t, fd, 4096, int64(rng.Intn(64))*4096)
						if rng.Intn(3) == 0 {
							sys.Fsync(t, fd)
						}
						sys.Close(t, fd)
					}
				case 6:
					p := fmt.Sprintf("/data/tmp-%d-%d", w, i)
					fd, err := sys.Open(t, p, trace.OWronly|trace.OCreat|trace.OExcl, 0o644)
					if err == 0 {
						sys.Write(t, fd, 1024)
						sys.Close(t, fd)
						sys.Unlink(t, p)
					}
				case 7:
					sys.Getxattr(t, "/data/shared", "user.tag", true)
					sys.Setxattr(t, myFile, "user.mine", 8, true)
				case 8:
					fd, err := sys.Open(t, "/data", trace.ORdonly|trace.ODir, 0)
					if err == 0 {
						sys.Getdents(t, fd, 32)
						sys.Close(t, fd)
					}
				default:
					fd, err := sys.Open(t, "/data/shared", trace.ORdonly, 0)
					if err == 0 {
						sys.Read(t, fd, 8192)
						sys.Close(t, fd)
					}
				}
			}
			fdOwnerDone = true
			_ = fdOwnerDone
		})
	}
}

// TestQuickRandomProgramsReplayClean is the end-to-end metamorphic
// property: for any seed, a trace of a random multithreaded program
// replays with zero semantic errors under every constrained method, and
// the executed order always satisfies the dependency graph (SelfCheck).
func TestQuickRandomProgramsReplayClean(t *testing.T) {
	f := func(seed int64, nt, ops uint8) bool {
		threads := int(nt%4) + 2
		opsPer := int(ops%12) + 4
		conf := defaultConf()
		k := sim.NewKernel()
		sys := stack.New(k, conf)
		if err := sys.SetupCreate("/data/shared", 1<<20); err != nil {
			return false
		}
		for w := 0; w < threads; w++ {
			if err := sys.SetupCreate(fmt.Sprintf("/data/own%d", w), 256<<10); err != nil {
				return false
			}
		}
		if err := sys.SetupXattr("/data/shared", "user.tag", 8); err != nil {
			return false
		}
		snap := snapshot.Capture(sys)
		tr := &trace.Trace{Platform: string(conf.Platform)}
		sys.SetTracer(tr)
		randomProgram(sys, threads, opsPer, seed)
		if err := k.Run(); err != nil {
			t.Logf("seed %d: workload: %v", seed, err)
			return false
		}
		tr.Renumber()
		b, err := Compile(tr, snap, core.DefaultModes())
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		for _, m := range []Method{MethodARTC, MethodSingle, MethodTemporal} {
			k2 := sim.NewKernel()
			sys2 := stack.New(k2, conf)
			if err := Init(sys2, b, ""); err != nil {
				t.Logf("seed %d: init: %v", seed, err)
				return false
			}
			rep, err := Replay(sys2, b, Options{Method: m, SelfCheck: true})
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, m, err)
				return false
			}
			if rep.Errors != 0 {
				t.Logf("seed %d: %s: %d errors: %v", seed, m, rep.Errors, rep.ErrorSamples)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
