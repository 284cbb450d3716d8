package stack

import (
	"math/rand"
	"slices"
	"testing"

	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// mapFDs is the descriptor table as it was: a map from number to
// description, searched from 3 upward for every allocation. It is the
// reference the slice-backed table is tested against and nothing else.
type mapFDs map[int64]int // number -> description id

func (m mapFDs) lowestFree() int64 {
	n := int64(3)
	for {
		if _, used := m[n]; !used {
			return n
		}
		n++
	}
}

// TestFDNumbersMatchMapOracle drives open, dup, dup2, F_DUPFD and close
// in a seeded random order and requires every number handed out, every
// error, and the table's contents to match the map walk: POSIX
// lowest-free-number semantics, reuse after close included.
func TestFDNumbersMatchMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		k, sys := newSys(nil)
		if err := sys.SetupCreate("/f", 4096); err != nil {
			t.Fatal(err)
		}
		oracle := mapFDs{}
		nextDesc := 0
		rng := rand.New(rand.NewSource(seed))
		run(t, k, func(th *sim.Thread) {
			pick := func() int64 { // an open number, mostly
				if len(oracle) == 0 || rng.Intn(10) == 0 {
					return int64(rng.Intn(40))
				}
				open := sys.DumpFDs()
				return open[rng.Intn(len(open))]
			}
			for step := 0; step < 3000; step++ {
				var got, want int64
				var gotErr, wantErr vfs.Errno
				switch op := rng.Intn(10); {
				case op < 3:
					got, gotErr = sys.Open(th, "/f", trace.ORdonly, 0)
					want = oracle.lowestFree()
					oracle[want] = nextDesc
					nextDesc++
				case op < 5:
					fd := pick()
					if rng.Intn(2) == 0 {
						got, gotErr = sys.Dup(th, fd)
					} else {
						got, gotErr = sys.Fcntl(th, fd, "F_DUPFD", 0)
					}
					if d, ok := oracle[fd]; ok {
						want = oracle.lowestFree()
						oracle[want] = d
					} else {
						want, wantErr = -1, vfs.EBADF
					}
				case op < 6:
					fd, fd2 := pick(), int64(rng.Intn(60))
					got, gotErr = sys.Dup2(th, fd, fd2)
					if d, ok := oracle[fd]; ok {
						want = fd2
						oracle[fd2] = d
					} else {
						want, wantErr = -1, vfs.EBADF
					}
				default:
					fd := pick()
					got, gotErr = sys.Close(th, fd)
					if _, ok := oracle[fd]; ok {
						delete(oracle, fd)
					} else {
						want, wantErr = -1, vfs.EBADF
					}
				}
				if got != want || gotErr != wantErr {
					t.Fatalf("seed %d step %d: got %d, %v; the map walk gives %d, %v", seed, step, got, gotErr, want, wantErr)
				}
				var open []int64
				for n := range oracle {
					open = append(open, n)
				}
				slices.Sort(open)
				if !slices.Equal(sys.DumpFDs(), open) {
					t.Fatalf("seed %d step %d: open numbers %v, the map holds %v", seed, step, sys.DumpFDs(), open)
				}
			}
			// Numbers that share a description share its offset and no
			// other's, whatever the struct recycling did.
			for n, d := range oracle {
				sys.Lseek(th, n, int64(d), SeekSet)
			}
			for n, d := range oracle {
				if pos, _ := sys.Lseek(th, n, 0, SeekCur); pos != int64(d) {
					t.Fatalf("seed %d: fd %d at offset %d, want its description's %d", seed, n, pos, d)
				}
			}
		})
	}
}

// TestOpenCostIndependentOfHeldDescriptors counts the table slots an
// open examines: the same with 60k descriptors held as with 4, where the
// map walk examined every one of them.
func TestOpenCostIndependentOfHeldDescriptors(t *testing.T) {
	probesPerOpen := func(held int) int64 {
		k, sys := newSys(nil)
		if err := sys.SetupCreate("/f", 4096); err != nil {
			t.Fatal(err)
		}
		var probes int64
		run(t, k, func(th *sim.Thread) {
			for i := 0; i < held; i++ {
				sys.Open(th, "/f", trace.ORdonly, 0)
			}
			before := sys.fdProbes
			for i := 0; i < 100; i++ {
				fd, _ := sys.Open(th, "/f", trace.ORdonly, 0)
				if want := int64(3 + held); fd != want {
					t.Fatalf("open with %d held returned %d, want %d", held, fd, want)
				}
				sys.Close(th, fd)
			}
			probes = sys.fdProbes - before
		})
		return probes
	}
	few, many := probesPerOpen(4), probesPerOpen(60000)
	if few != many {
		t.Fatalf("100 opens examined %d slots with 4 descriptors held, %d with 60000", few, many)
	}
	// A hole low in the table is found again after a close, at no scan.
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/f", 4096); err != nil {
		t.Fatal(err)
	}
	run(t, k, func(th *sim.Thread) {
		for i := 0; i < 1000; i++ {
			sys.Open(th, "/f", trace.ORdonly, 0)
		}
		sys.Close(th, 500)
		sys.Close(th, 17)
		before := sys.fdProbes
		a, _ := sys.Open(th, "/f", trace.ORdonly, 0)
		if a != 17 {
			t.Fatalf("reopen got %d, want the lowest hole 17", a)
		}
		if sys.fdProbes != before {
			t.Fatalf("open into a just-closed number examined %d slots", sys.fdProbes-before)
		}
		if b, _ := sys.Open(th, "/f", trace.ORdonly, 0); b != 500 {
			t.Fatalf("next open got %d, want the next hole 500", b)
		}
	})
}

// TestCloseDuringBlockedReadDoesNotRecycle closes a descriptor while a
// read on it is blocked on the device and reopens at once: the new open
// gets the number, but not the description the read still writes its
// offset through.
func TestCloseDuringBlockedReadDoesNotRecycle(t *testing.T) {
	k, sys := newSys(nil)
	if err := sys.SetupCreate("/cold", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetupCreate("/other", 1<<20); err != nil {
		t.Fatal(err)
	}
	var fd int64
	k.Spawn("reader", func(th *sim.Thread) {
		// Warm /other's metadata, so that the reopen below is quick and
		// lands while the read is still waiting.
		warm, _ := sys.Open(th, "/other", trace.ORdonly, 0)
		sys.Close(th, warm)
		fd, _ = sys.Open(th, "/cold", trace.ORdonly, 0)
		if n, err := sys.Read(th, fd, 65536); err != vfs.OK || n != 65536 {
			t.Errorf("blocked read = %d, %v", n, err)
		}
	})
	k.Spawn("closer", func(th *sim.Thread) {
		for fd == 0 {
			th.Sleep(syscallCPU)
		}
		th.Sleep(10 * syscallCPU) // the reader is inside its device wait now
		if _, err := sys.Close(th, fd); err != vfs.OK {
			t.Errorf("close = %v", err)
		}
		again, _ := sys.Open(th, "/other", trace.ORdonly, 0)
		if again != fd {
			t.Errorf("reopen got %d, want the freed number %d", again, fd)
		}
		th.Sleep(1 << 30) // long after the read completed
		if pos, _ := sys.Lseek(th, again, 0, SeekCur); pos != 0 {
			t.Errorf("the finished read moved the new descriptor's offset to %d", pos)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// DumpFDs lists open descriptor numbers.
func (s *System) DumpFDs() []int64 {
	var out []int64
	for n, f := range s.fds {
		if f != nil {
			out = append(out, int64(n))
		}
	}
	return out
}
