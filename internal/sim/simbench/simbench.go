// Package simbench holds the kernel microbenchmark bodies. They live
// outside the _test files so the bench/ harness (bench/probes.go) can
// run them through testing.Benchmark and report them as its sim.* rows,
// while internal/sim's benchmark tests wrap the same bodies for `go test
// -bench`.
package simbench

import (
	"testing"
	"time"

	"rootreplay/internal/sim"
)

// TimerChurn measures the event queue under sustained timer traffic:
// a fan of self-rescheduling callbacks keeps 64 timers pending with
// offsets from 3µs to 400ms, the offsets the timer wheel was measured
// with, so sim.timer_churn_ns_per_op compares across the two. This is
// the alloc-sensitive benchmark: each iteration is one
// schedule+dispatch round-trip.
func TimerChurn(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	offsets := [...]time.Duration{
		3 * time.Microsecond,
		170 * time.Microsecond,
		1100 * time.Microsecond,
		47 * time.Millisecond,
		400 * time.Millisecond,
	}
	const fan = 64
	n := 0
	var tick func()
	tick = func() {
		if n >= b.N {
			return
		}
		n++
		k.After(offsets[n%len(offsets)], tick)
	}
	b.ResetTimer()
	for i := 0; i < fan; i++ {
		k.After(offsets[i%len(offsets)], tick)
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// SleepChurn measures the thread wake path: b.N sleeps through the
// pooled opWake event. Two sleepers run in lockstep so that each wake is
// due at the instant of the other's, never strictly first, and none is
// taken in place (sim.BenchmarkKernelSleepAlone measures that path).
func SleepChurn(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	for _, n := range [2]int{(b.N + 1) / 2, b.N / 2} {
		k.Spawn("sleeper", func(t *sim.Thread) {
			for i := 0; i < n; i++ {
				t.Sleep(time.Duration(1+i%5) * time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if _, inPlace := k.Sleeps(); inPlace > 1 {
		b.Fatalf("%d sleeps in place: the probe no longer measures the event path", inPlace)
	}
}

// PingPong measures context-switch cost: two threads handing control
// back and forth via Park/Unpark, the direct-handoff fast path.
func PingPong(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	var a, z *sim.Thread
	a = k.Spawn("ping", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.Park("ping")
			k.Unpark(z)
		}
	})
	z = k.Spawn("pong", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			k.Unpark(a)
			t.Park("pong")
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

type storm struct {
	k    *sim.Kernel
	left int
}

func (s *storm) Complete(tag uint64) {
	if s.left > 0 {
		s.left--
		s.k.AfterComplete(time.Duration(1+tag%3)*100*time.Microsecond, s, tag+1)
	}
}

// CompletionStorm measures the I/O completion path: a chain of pooled
// opComplete events standing in for device completions, 8 in flight.
func CompletionStorm(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	s := &storm{k: k, left: b.N}
	b.ResetTimer()
	for i := uint64(0); i < 8; i++ {
		k.AfterComplete(time.Duration(i)*time.Microsecond, s, i)
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
