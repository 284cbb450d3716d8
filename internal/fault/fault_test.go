package fault

import (
	"testing"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
	"rootreplay/internal/vfs"
)

// Decisions must be pure functions of (seed, site, index): same seed
// reproduces exactly, different seeds and different sites diverge.
func TestStreamDeterminism(t *testing.T) {
	a := newStream(42, "syscall")
	b := newStream(42, "syscall")
	c := newStream(43, "syscall")
	d := newStream(42, "dev/eio")
	sameAB, sameAC, sameAD := true, true, true
	for i := uint64(0); i < 4096; i++ {
		if a.hit(i, 0.3) != b.hit(i, 0.3) {
			sameAB = false
		}
		if a.hit(i, 0.3) != c.hit(i, 0.3) {
			sameAC = false
		}
		if a.hit(i, 0.3) != d.hit(i, 0.3) {
			sameAD = false
		}
	}
	if !sameAB {
		t.Fatal("same (seed, site) produced different decisions")
	}
	if sameAC {
		t.Fatal("different seeds produced identical decision sequences")
	}
	if sameAD {
		t.Fatal("different sites produced identical decision sequences")
	}
}

func TestStreamRateExtremes(t *testing.T) {
	s := newStream(7, "x")
	for i := uint64(0); i < 64; i++ {
		if s.hit(i, 0) {
			t.Fatal("rate 0 fired")
		}
		if !s.hit(i, 1) {
			t.Fatal("rate 1 did not fire")
		}
	}
}

func TestStreamRateIsRoughlyCalibrated(t *testing.T) {
	s := newStream(99, "cal")
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.hit(uint64(i), 0.1) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.08 || got > 0.12 {
		t.Fatalf("rate 0.1 fired %.4f of the time", got)
	}
}

// An injected fault returns the plan's named errno and is counted.
func TestSyscallFaultReturnsNamedErrno(t *testing.T) {
	in := New(Plan{Seed: 1, Syscall: SyscallPlan{Rate: 1, Errno: "ENOSPC"}})
	for i := 0; i < 3; i++ {
		if e, ok := in.SyscallFault(i, 0); !ok || e != vfs.ENOSPC {
			t.Fatalf("got (%v, %v), want (ENOSPC, true)", e, ok)
		}
	}
	if in.Stats().SyscallInjected != 3 {
		t.Fatalf("SyscallInjected = %d, want 3", in.Stats().SyscallInjected)
	}
	if _, ok := New(Plan{Seed: 1}).SyscallFault(0, 0); ok {
		t.Fatal("zero rate injected")
	}
}

func TestUnknownErrnoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown errno accepted silently")
		}
	}()
	New(Plan{Syscall: SyscallPlan{Rate: 1, Errno: "EBOGUS"}})
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	in := New(Plan{Retry: RetryPlan{MaxAttempts: 16}})
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Microsecond},
		{2, 200 * time.Microsecond},
		{7, 6400 * time.Microsecond},
		{8, 10 * time.Millisecond}, // 12.8ms, capped
		{15, 10 * time.Millisecond},
	} {
		if d := in.Backoff(tc.attempt); d != tc.want {
			t.Fatalf("attempt %d backoff %v, want %v", tc.attempt, d, tc.want)
		}
	}
}

// runDeviceWorkload submits n scattered requests through a wrapped HDD
// and returns the completion times and fault stats.
func runDeviceWorkload(t *testing.T, seed uint64, plan StoragePlan, n int) ([]time.Duration, Stats) {
	t.Helper()
	in := New(Plan{Seed: seed, Storage: plan})
	k := sim.NewKernel()
	dev := in.WrapDevice(k, storage.NewHDD(k, "t/hdd", storage.DefaultHDD()))
	if _, ok := dev.(*faultyDevice); !ok {
		t.Fatal("enabled plan did not wrap the device")
	}
	doneAt := make([]time.Duration, n)
	k.Spawn("submitter", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			i := i
			r := &storage.Request{Kind: storage.Read, LBA: int64(i*7919) % 100000, Blocks: 1}
			dev.Submit(r, func() { doneAt[i] = k.Now() })
			th.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after drain, want 0", dev.Outstanding())
	}
	return doneAt, in.Stats()
}

// Transient device errors must be retried to successful completion —
// every request completes, later than a fault-free run — and the whole
// schedule must reproduce exactly for a given seed.
func TestDeviceFaultsRetryAndReproduce(t *testing.T) {
	plan := StoragePlan{ErrorRate: 0.3, SlowRate: 0.2}
	a, sa := runDeviceWorkload(t, 11, plan, 200)
	b, sb := runDeviceWorkload(t, 11, plan, 200)
	if sa != sb {
		t.Fatalf("stats diverged across identical runs:\n%v\n%v", sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d at %v vs %v across identical runs", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("request %d never completed", i)
		}
	}
	if sa.StorageErrors == 0 || sa.StorageSlow == 0 {
		t.Fatalf("expected both fault kinds at these rates, got %v", sa)
	}

	clean, cs := runDeviceWorkload(t, 11, StoragePlan{ErrorRate: 0.3}, 200)
	_ = clean
	if cs.StorageSlow != 0 {
		t.Fatalf("zero slow rate still injected: %v", cs)
	}
}

// A saturated error rate must terminate via the retry cap rather than
// live-locking the simulation.
func TestDeviceErrorRetryCap(t *testing.T) {
	done, st := runDeviceWorkload(t, 5, StoragePlan{ErrorRate: 1}, 16)
	for i, d := range done {
		if d == 0 {
			t.Fatalf("request %d never completed under saturated error rate", i)
		}
	}
	if st.StorageErrors != 16*maxErrorRetries {
		t.Fatalf("StorageErrors = %d, want %d (%d capped retries per request)",
			st.StorageErrors, 16*maxErrorRetries, maxErrorRetries)
	}
}

// Zero-rate plans must not wrap at all: the off path is the identical
// Device value, not a pass-through shim.
func TestZeroRatePlanDoesNotWrap(t *testing.T) {
	in := New(Plan{Seed: 1})
	k := sim.NewKernel()
	hdd := storage.NewHDD(k, "t/hdd", storage.DefaultHDD())
	if dev := in.WrapDevice(k, hdd); dev != storage.Device(hdd) {
		t.Fatal("zero-rate plan wrapped the device")
	}
}
