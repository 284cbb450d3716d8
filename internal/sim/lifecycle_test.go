package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
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

// A sleep "forever" must not wrap into the past and wake at once: now is
// 1µs when it is made, so now + MaxInt64 overflows.
func TestSleepForeverNeverWakes(t *testing.T) {
	k := NewKernel()
	k.Spawn("forever", func(th *Thread) {
		th.Sleep(time.Microsecond)
		th.Sleep(time.Duration(math.MaxInt64))
		t.Errorf("woke from a sleep of MaxInt64 at %v", k.Now())
	})
	k.Spawn("stopper", func(th *Thread) {
		th.Sleep(time.Millisecond)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != time.Millisecond || k.Live() != 0 {
		t.Fatalf("Run ended at %v with %d live threads, want 1ms and 0", k.Now(), k.Live())
	}
	// After and AfterComplete saturate the same way.
	k = NewKernel()
	k.Spawn("timers", func(th *Thread) {
		th.Sleep(time.Microsecond)
		k.After(time.Duration(math.MaxInt64), func() { t.Error("After(MaxInt64) fired") })
		k.AfterComplete(time.Duration(math.MaxInt64), completeFunc(func(uint64) { t.Error("AfterComplete(MaxInt64) fired") }), 0)
		th.Sleep(time.Millisecond)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A lone sleeper drags the empty wheel's window along with the clock.
// Were base left behind, the timer armed after the long sleep would be
// filed a level up, earliest() would know only a bound long past, and
// no sleep could be taken in place while the timer was pending.
func TestSleepInPlaceRebasesEmptyWheel(t *testing.T) {
	k := NewKernel()
	fired := time.Duration(0)
	const long = time.Duration(wheelSpan << wheelShift) // a window boundary, so the timer below is within level 0
	k.Spawn("lone", func(th *Thread) {
		th.Sleep(long)
		k.After(500*time.Microsecond, func() { fired = k.Now() })
		for i := 0; i < 4; i++ {
			th.Sleep(100 * time.Microsecond)
		}
		th.Sleep(time.Millisecond) // past the timer: through the wheel
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if total, inPlace := k.Sleeps(); total != 6 || inPlace != 5 {
		t.Errorf("%d of %d sleeps in place, want 5 of 6", inPlace, total)
	}
	if want := long + 500*time.Microsecond; fired != want {
		t.Errorf("timer fired at %v, want %v", fired, want)
	}
}

type completeFunc func(tag uint64)

func (f completeFunc) Complete(tag uint64) { f(tag) }

// The lifecycle cases of a sleep taken in place. Each runs twice, on a
// plain kernel (the lone sleeper advances in place) and under nopPacer
// (it goes through the wheel), and must come out the same.
func TestSleepInPlaceLifecycle(t *testing.T) {
	type result struct {
		log      []string
		now      time.Duration
		err      error
		panicked any
		live     int
	}
	run := func(paced bool, body func(k *Kernel, logf func(string, ...any))) (res result) {
		k := NewKernel()
		if paced {
			k.SetPacer(nopPacer{})
		}
		logf := func(f string, a ...any) { res.log = append(res.log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(f, a...)) }
		body(k, logf)
		func() {
			defer func() { res.panicked = recover() }()
			res.err = k.Run()
		}()
		res.now, res.live = k.Now(), k.Live()
		if _, inPlace := k.Sleeps(); paced != (inPlace == 0) {
			t.Errorf("%d sleeps in place, paced=%v", inPlace, paced)
		}
		return res
	}
	cases := []struct {
		name  string
		body  func(k *Kernel, logf func(string, ...any))
		check func(t *testing.T, r result)
	}{
		{"Stop then Sleep ends Run", func(k *Kernel, logf func(string, ...any)) {
			k.Spawn("lone", func(th *Thread) {
				th.Sleep(time.Microsecond)
				k.Stop()
				th.Sleep(time.Millisecond)
				logf("ran past a stop")
			})
		}, func(t *testing.T, r result) {
			if r.now != time.Microsecond || len(r.log) != 0 {
				t.Errorf("clock at %v, log %q: the sleep after Stop advanced", r.now, r.log)
			}
		}},
		{"a hook that removes itself is not called again", func(k *Kernel, logf func(string, ...any)) {
			var lone *Thread
			var remove func()
			remove = k.AddSchedHook(func() {
				logf("hook: %v, runq %d", lone.State(), k.RunqLen())
				if lone.State() == StateBlocked {
					remove() // at the first scheduling point of the first sleep
				}
			})
			lone = k.Spawn("lone", func(th *Thread) {
				for i := 0; i < 3; i++ {
					th.Sleep(time.Millisecond)
					logf("woke %v", th.State())
				}
			})
		}, func(t *testing.T, r result) {
			// Start of Run, then the blocked point; never the runnable one.
			if hooks := strings.Count(strings.Join(r.log, "\n"), "hook:"); hooks != 2 || r.now != 3*time.Millisecond {
				t.Errorf("hook ran %d times, clock at %v; log:\n%s", hooks, r.now, strings.Join(r.log, "\n"))
			}
		}},
		{"a hook that stops the kernel ends Run with the sleeper woken", func(k *Kernel, logf func(string, ...any)) {
			var lone *Thread
			k.AddSchedHook(func() {
				if lone.State() == StateBlocked {
					k.Stop()
				}
			})
			lone = k.Spawn("lone", func(th *Thread) {
				defer func() { logf("unwound %v", th.State()) }()
				th.Sleep(time.Millisecond)
				logf("ran past a stop")
			})
		}, func(t *testing.T, r result) {
			if r.now != time.Millisecond || len(r.log) != 1 || r.live != 0 {
				t.Errorf("clock at %v, %d live, log %q", r.now, r.live, r.log)
			}
		}},
		{"a hook panic surfaces from Run", func(k *Kernel, logf func(string, ...any)) {
			var lone *Thread
			k.AddSchedHook(func() {
				if lone.State() == StateRunnable && k.Now() >= time.Millisecond {
					panic("boom") // at the second scheduling point of the long sleep
				}
			})
			lone = k.Spawn("lone", func(th *Thread) {
				th.Sleep(time.Microsecond) // the bystander parks meanwhile
				th.Sleep(time.Millisecond)
				logf("ran past a panic")
			})
			k.Spawn("bystander", func(th *Thread) { th.Park("bystander") })
		}, func(t *testing.T, r result) {
			// In place the hook runs on the sleeper's stack, so the value
			// arrives wrapped; through the wheel it is Run's own panic.
			v := r.panicked
			if tp, ok := v.(*ThreadPanic); ok {
				v = tp.Value
			}
			if v != "boom" || r.live != 0 || len(r.log) != 0 {
				t.Errorf("Run panicked with %v, %d live, log %q", r.panicked, r.live, r.log)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			got, want := run(false, c.body), run(true, c.body)
			c.check(t, got)
			c.check(t, want)
			if fmt.Sprint(got.log, got.now, got.err, got.live) != fmt.Sprint(want.log, want.now, want.err, want.live) {
				t.Errorf("in place: %v\npaced:    %v", got, want)
			}
			waitGoroutines(t, base)
		})
	}
}
