package sim_test

import (
	"testing"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/sim/simbench"
)

// The benchmark bodies live in simbench so bench/probes.go can run the
// same code and report the numbers as its sim.* rows.

func BenchmarkKernelTimerChurn(b *testing.B)      { simbench.TimerChurn(b) }
func BenchmarkKernelSleepChurn(b *testing.B)      { simbench.SleepChurn(b) }
func BenchmarkKernelPingPong(b *testing.B)        { simbench.PingPong(b) }
func BenchmarkKernelCompletionStorm(b *testing.B) { simbench.CompletionStorm(b) }

// BenchmarkKernelSleepAlone measures a sleep taken in place: a lone
// sleeper with nothing pending never leaves its thread.
func BenchmarkKernelSleepAlone(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	k.Spawn("sleeper", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.Sleep(time.Duration(1+i%5) * time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if total, inPlace := k.Sleeps(); inPlace != total {
		b.Fatalf("%d of %d sleeps in place", inPlace, total)
	}
}
