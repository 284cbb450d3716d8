package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count returns to
// at most base. The count is polled briefly: a coroutine's goroutine is
// gone once stop returns, but unrelated runtime goroutines may linger.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A kernel that spawns a thread per operation must not remember the
// finished ones: k.threads holds exactly the unfinished threads.
func TestThreadsHoldsOnlyLive(t *testing.T) {
	k := NewKernel()
	const spawns = 10_000
	worst := 0 // most entries k.threads ever held beyond the live threads
	check := func() { worst = max(worst, len(k.threads)-k.Live()) }
	k.Spawn("parent", func(th *Thread) {
		for i := 0; i < spawns; i++ {
			k.Spawn("child", func(c *Thread) {
				if i%3 == 0 {
					c.Sleep(time.Microsecond)
				}
			})
			if i%4 == 0 {
				th.Sleep(2 * time.Microsecond)
			}
			check()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	check()
	if worst != 0 {
		t.Fatalf("k.threads held %d finished threads", worst)
	}
	if len(k.threads) != 0 || k.Live() != 0 {
		t.Fatalf("after Run: %d threads remembered, %d live", len(k.threads), k.Live())
	}
}

// The deadlock report lists the blocked threads, sorted, whatever order
// completions left k.threads in.
func TestDeadlockReportAfterChurn(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	wg := NewWaitGroup(k)
	wg.Add(1)
	k.Spawn("zeta", func(th *Thread) { c.Wait(th, "never signaled") })
	for i := 0; i < 5; i++ {
		k.Spawn("short", func(th *Thread) { th.Sleep(time.Millisecond) })
	}
	k.Spawn("alpha", func(th *Thread) { wg.Wait(th) })
	k.Spawn("mid", func(th *Thread) { th.Park("parked for good") })
	err := k.Run()
	const want = "sim: deadlock at 1ms: 3 thread(s) blocked: " +
		"alpha(7): waitgroup (1 remaining); mid(8): parked for good; zeta(1): never signaled"
	if err == nil || err.Error() != want {
		t.Fatalf("Run() = %v\nwant %s", err, want)
	}
}

func TestNoGoroutinesAfterDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	c := NewCond(k)
	for i := 0; i < 8; i++ {
		k.Spawn("stuck", func(th *Thread) {
			th.Sleep(time.Millisecond)
			c.Wait(th, "never signaled")
		})
	}
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("expected a deadlock")
	}
	waitGoroutines(t, base)
}

// TestKernelStop's scenario plus bystanders: blocked threads, a runnable
// one and one that never started are all gone when Run returns.
func TestNoGoroutinesAfterStop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("loop", func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Sleep(time.Millisecond)
			if i == 5 {
				k.Spawn("never-started", func(*Thread) { t.Error("body ran after Stop") })
				k.Stop()
			}
		}
	})
	k.Spawn("parked", func(th *Thread) { th.Park("bystander") })
	k.Spawn("sleeper", func(th *Thread) { th.Sleep(time.Hour) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	if k.Live() != 0 {
		t.Fatalf("%d threads still live after Run", k.Live())
	}
}

// An abandoned thread is unwound, not dropped: its deferred calls run,
// and one that blocks again is unwound again instead of hanging.
func TestAbandonedThreadRunsDefers(t *testing.T) {
	k := NewKernel()
	var ran []string
	k.Spawn("stuck", func(th *Thread) {
		defer func() { ran = append(ran, "outer") }()
		defer func() {
			ran = append(ran, "blocking")
			th.Sleep(time.Second)
			ran = append(ran, "resumed after kill")
		}()
		th.Park("forever")
		ran = append(ran, "resumed after kill")
	})
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("expected a deadlock")
	}
	if len(ran) != 2 || ran[0] != "blocking" || ran[1] != "outer" {
		t.Fatalf("deferred calls ran as %v, want [blocking outer]", ran)
	}
}
