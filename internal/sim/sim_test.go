package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.Spawn("sleeper", func(th *Thread) {
		th.Sleep(10 * time.Millisecond)
		at = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", at)
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(th *Thread) {
		order = append(order, "a1")
		th.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(th *Thread) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 0 {
		t.Fatalf("clock advanced to %v on zero sleep", k.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30*time.Millisecond, func() { got = append(got, 3) })
	k.At(10*time.Millisecond, func() { got = append(got, 1) })
	k.At(20*time.Millisecond, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("event order = %v", got)
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v", k.Now())
	}
}

func TestSameInstantEventsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestPastEventRunsNow(t *testing.T) {
	k := NewKernel()
	fired := time.Duration(-1)
	k.Spawn("t", func(th *Thread) {
		th.Sleep(5 * time.Millisecond)
		k.At(time.Millisecond, func() { fired = k.Now() }) // in the past
		th.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5*time.Millisecond {
		t.Fatalf("past event fired at %v, want 5ms", fired)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	k.Spawn("stuck", func(th *Thread) {
		c.Wait(th, "never signaled")
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var woke []string
	mk := func(name string) {
		k.Spawn(name, func(th *Thread) {
			c.Wait(th, "test")
			woke = append(woke, name)
		})
	}
	mk("a")
	mk("b")
	mk("c")
	k.Spawn("signaler", func(th *Thread) {
		th.Sleep(time.Millisecond)
		c.Signal()
		th.Sleep(time.Millisecond)
		c.Signal()
		th.Sleep(time.Millisecond)
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(woke) != "[a b c]" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	done := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(th *Thread) {
			c.Wait(th, "test")
			done++
		})
	}
	k.Spawn("b", func(th *Thread) {
		th.Sleep(time.Millisecond)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 5 {
		t.Fatalf("done = %d, want 5", done)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Add(3)
	var finish time.Duration
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		k.Spawn("worker", func(th *Thread) {
			th.Sleep(d)
			wg.Done()
		})
	}
	k.Spawn("waiter", func(th *Thread) {
		wg.Wait(th)
		finish = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finish != 3*time.Millisecond {
		t.Fatalf("waiter finished at %v, want 3ms", finish)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative counter")
		}
	}()
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Done()
}

// Semaphore is a counting semaphore for simulated threads.
type Semaphore struct {
	k     *Kernel
	avail int
	cond  *Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	return &Semaphore{k: k, avail: n, cond: NewCond(k)}
}

// Acquire blocks t until a permit is available, then takes it.
func (s *Semaphore) Acquire(t *Thread) {
	for s.avail == 0 {
		s.cond.Wait(t, "semaphore")
	}
	s.avail--
}

// TryAcquire takes a permit if one is available, reporting whether it did.
func (s *Semaphore) TryAcquire() bool {
	if s.avail == 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns a permit and wakes one waiter.
func (s *Semaphore) Release() {
	s.avail++
	s.cond.Signal()
}

func TestSemaphore(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn("w", func(th *Thread) {
			sem.Acquire(th)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			th.Sleep(time.Millisecond)
			inside--
			sem.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 2 {
		t.Fatalf("max concurrent holders = %d, want 2", maxInside)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 1)
	if !sem.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if sem.TryAcquire() {
		t.Fatal("second TryAcquire succeeded")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestChanBuffered(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 2)
	var got []int
	k.Spawn("producer", func(th *Thread) {
		for i := 0; i < 5; i++ {
			ch.Send(th, i)
		}
		ch.Close()
	})
	k.Spawn("consumer", func(th *Thread) {
		for {
			v, ok := ch.Recv(th)
			if !ok {
				return
			}
			got = append(got, v)
			th.Sleep(time.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel()
	ch := NewChan[string](k, 0)
	var sentAt, recvAt time.Duration
	k.Spawn("s", func(th *Thread) {
		ch.Send(th, "x")
		sentAt = k.Now()
	})
	k.Spawn("r", func(th *Thread) {
		th.Sleep(7 * time.Millisecond)
		if v, ok := ch.Recv(th); !ok || v != "x" {
			t.Errorf("recv = %q, %v", v, ok)
		}
		recvAt = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt != 7*time.Millisecond || recvAt != 7*time.Millisecond {
		t.Fatalf("sentAt=%v recvAt=%v, want both 7ms", sentAt, recvAt)
	}
}

func TestSpawnFromThread(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", func(th *Thread) {
		k.Spawn("child", func(th2 *Thread) {
			th2.Sleep(time.Millisecond)
			childRan = true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestThreadIDsAndNames(t *testing.T) {
	k := NewKernel()
	t1 := k.Spawn("alpha", func(th *Thread) {})
	t2 := k.Spawn("beta", func(th *Thread) {})
	if t1.ID() != 1 || t2.ID() != 2 {
		t.Fatalf("ids = %d, %d", t1.ID(), t2.ID())
	}
	if t1.Name() != "alpha" || t2.Name() != "beta" {
		t.Fatalf("names = %q, %q", t1.Name(), t2.Name())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t1.state != StateDone {
		t.Fatalf("state = %v", t1.state)
	}
}

func TestUnparkNonBlockedNoop(t *testing.T) {
	k := NewKernel()
	th := k.Spawn("t", func(th *Thread) {})
	k.Unpark(th) // runnable, not blocked: must not duplicate in runq
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	cases := map[ThreadState]string{
		StateRunnable:   "runnable",
		StateRunning:    "running",
		StateBlocked:    "blocked",
		StateDone:       "done",
		ThreadState(42): "ThreadState(42)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// TestDeterminism runs a moderately complex mixed workload twice and
// checks that the trace of (time, event) pairs is identical.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		var log []string
		k := NewKernel()
		c := NewCond(k)
		sem := NewSemaphore(k, 2)
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
				sem.Acquire(th)
				th.Sleep(time.Duration(i%3+1) * time.Millisecond)
				log = append(log, fmt.Sprintf("%v w%d", k.Now(), i))
				sem.Release()
				if i%2 == 0 {
					c.Wait(th, "even")
				} else {
					c.Signal()
				}
			})
		}
		k.Spawn("drain", func(th *Thread) {
			th.Sleep(50 * time.Millisecond)
			c.Broadcast()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, every thread wakes exactly at
// its requested time and the final clock is the max duration.
func TestQuickSleepTiming(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		if len(ds) > 64 {
			ds = ds[:64]
		}
		k := NewKernel()
		wake := make([]time.Duration, len(ds))
		var max time.Duration
		for i, d := range ds {
			dur := time.Duration(d) * time.Microsecond
			if dur > max {
				max = dur
			}
			i := i
			k.Spawn("s", func(th *Thread) {
				th.Sleep(dur)
				wake[i] = k.Now()
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i, d := range ds {
			want := time.Duration(d) * time.Microsecond
			if want == 0 {
				want = 0
			}
			if wake[i] != want {
				return false
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of threads connected by rendezvous channels passes a
// token end to end regardless of chain length.
func TestQuickChanPipeline(t *testing.T) {
	f := func(n uint8) bool {
		stages := int(n%16) + 1
		k := NewKernel()
		chans := make([]*Chan[int], stages+1)
		for i := range chans {
			chans[i] = NewChan[int](k, 0)
		}
		for i := 0; i < stages; i++ {
			in, out := chans[i], chans[i+1]
			k.Spawn("stage", func(th *Thread) {
				v, ok := in.Recv(th)
				if ok {
					out.Send(th, v+1)
				}
			})
		}
		final := -1
		k.Spawn("sink", func(th *Thread) {
			v, _ := chans[stages].Recv(th)
			final = v
		})
		k.Spawn("source", func(th *Thread) {
			chans[0].Send(th, 0)
		})
		if err := k.Run(); err != nil {
			return false
		}
		return final == stages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpawnRunThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 100; j++ {
			k.Spawn("t", func(th *Thread) { th.Sleep(time.Millisecond) })
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCondSignalWait(b *testing.B) {
	k := NewKernel()
	c := NewCond(k)
	n := b.N
	k.Spawn("waiter", func(th *Thread) {
		for i := 0; i < n; i++ {
			c.Wait(th, "bench")
		}
	})
	k.Spawn("signaler", func(th *Thread) {
		for i := 0; i < n; i++ {
			c.Signal()
			th.Yield()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestChanSendOnClosedPanics(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 1)
	ch.Close()
	panicked := false
	k.Spawn("s", func(th *Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch.Send(th, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("send on closed channel did not panic")
	}
}

func TestChanCloseWakesBlockedReceiver(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	gotOK := true
	k.Spawn("r", func(th *Thread) {
		_, gotOK = ch.Recv(th)
	})
	k.Spawn("c", func(th *Thread) {
		th.Sleep(time.Millisecond)
		ch.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotOK {
		t.Fatal("receiver on closed channel reported ok")
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.Spawn("loop", func(th *Thread) {
		for i := 0; i < 1000; i++ {
			steps++
			th.Sleep(time.Millisecond)
			if i == 5 {
				k.Stop()
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps > 10 {
		t.Fatalf("Stop did not abort the run: %d steps", steps)
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	k.Spawn("waiter-a", func(th *Thread) { c.Wait(th, "thing-x") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "thing-x") || !strings.Contains(err.Error(), "waiter-a") {
		t.Fatalf("deadlock report missing context: %v", err)
	}
}
