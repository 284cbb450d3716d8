package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// runPanics runs k and returns what Run panicked with.
func runPanics(t *testing.T, k *Kernel) (v any) {
	t.Helper()
	defer func() { v = recover() }()
	err := k.Run()
	t.Fatalf("Run returned %v, want a panic", err)
	return nil
}

// doomedBody is a named function so the test can look for it in the
// captured stack.
func doomedBody(th *Thread) {
	th.Sleep(time.Millisecond)
	panic("boom")
}

// A panic in a thread body reaches Run's caller as a *ThreadPanic that
// still knows where it came from, and takes the other threads with it.
func TestThreadPanicReachesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("bystander", func(th *Thread) { th.Park("forever") })
	k.Spawn("doomed", doomedBody)
	k.Spawn("sleeper", func(th *Thread) { th.Sleep(time.Hour) })
	v := runPanics(t, k)
	tp, ok := v.(*ThreadPanic)
	if !ok {
		t.Fatalf("Run panicked with %T (%v), want *ThreadPanic", v, v)
	}
	if tp.Thread != "doomed(2)" || tp.Value != "boom" {
		t.Fatalf("ThreadPanic = {%q, %v}", tp.Thread, tp.Value)
	}
	if !strings.Contains(string(tp.Stack), "doomedBody") {
		t.Fatalf("stack does not show the panicking frame:\n%s", tp.Stack)
	}
	if msg := tp.Error(); !strings.Contains(msg, "doomed(2)") || !strings.Contains(msg, "doomedBody") {
		t.Fatalf("Error() lost the thread or the stack:\n%s", msg)
	}
	waitGoroutines(t, base)
}

// A panic in a timed callback is already on Run's goroutine and passes
// through unchanged; the threads it strands are still unwound.
func TestEventPanicReapsThreads(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Spawn("bystander", func(th *Thread) { th.Park("forever") })
	}
	k.At(time.Millisecond, func() { panic("event boom") })
	if v := runPanics(t, k); v != "event boom" {
		t.Fatalf("Run panicked with %v, want the callback's own value", v)
	}
	waitGoroutines(t, base)
}

// A finished Thread keeps no handle on its coroutine, so holding the
// *Thread does not pin what the body captured.
func TestFinishedThreadDropsCoroutine(t *testing.T) {
	k := NewKernel()
	done := k.Spawn("done", func(th *Thread) { th.Sleep(time.Millisecond) })
	killed := k.Spawn("killed", func(th *Thread) { th.Park("forever") })
	k.Run()
	for _, th := range []*Thread{done, killed} {
		if th.State() != StateDone || th.next != nil || th.stop != nil || th.yield != nil {
			t.Fatalf("%s: state %v, coroutine handles kept", th.Name(), th.State())
		}
	}
}
