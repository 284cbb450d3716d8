package storage

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"rootreplay/internal/sim"
)

// submitAndRun submits all requests at time zero and runs the kernel,
// returning completion times in submission order.
func submitAndRun(t *testing.T, dev Device, reqs []*Request) []time.Duration {
	t.Helper()
	times := make([]time.Duration, len(reqs))
	k := kernelOf(dev)
	for i, r := range reqs {
		i := i
		dev.Submit(r, func() { times[i] = k.Now() })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return times
}

func kernelOf(dev Device) *sim.Kernel {
	switch d := dev.(type) {
	case *HDD:
		return d.k
	case *SSD:
		return d.k
	case *RAID0:
		return kernelOf(d.members[0])
	}
	panic("unknown device")
}

func TestHDDSequentialFasterThanRandom(t *testing.T) {
	p := DefaultHDD()

	k1 := sim.NewKernel()
	seqDev := NewHDD(k1, "seq", p)
	var seqReqs []*Request
	for i := 0; i < 64; i++ {
		seqReqs = append(seqReqs, &Request{Kind: Read, LBA: int64(i), Blocks: 1})
	}
	seqTimes := submitAndRun(t, seqDev, seqReqs)
	seqTotal := seqTimes[len(seqTimes)-1]

	k2 := sim.NewKernel()
	rndDev := NewHDD(k2, "rnd", p)
	var rndReqs []*Request
	for i := 0; i < 64; i++ {
		lba := int64(i*1000003) % p.Blocks
		rndReqs = append(rndReqs, &Request{Kind: Read, LBA: lba, Blocks: 1})
	}
	rndTimes := submitAndRun(t, rndDev, rndReqs)
	rndTotal := rndTimes[len(rndTimes)-1]

	if seqTotal*10 > rndTotal {
		t.Fatalf("sequential %v not much faster than random %v", seqTotal, rndTotal)
	}
}

func TestHDDQueueDepthImprovesThroughput(t *testing.T) {
	// Service N random reads one at a time vs. all queued at once; the
	// elevator should reduce total time when it can pick among many.
	p := DefaultHDD()
	lbas := make([]int64, 64)
	for i := range lbas {
		lbas[i] = (int64(i)*2654435761 + 12345) % p.Blocks
	}

	// Depth 1: submit each after the previous completes.
	k1 := sim.NewKernel()
	d1 := NewHDD(k1, "d1", p)
	var serialTotal time.Duration
	var submitNext func(i int)
	submitNext = func(i int) {
		if i == len(lbas) {
			serialTotal = k1.Now()
			return
		}
		d1.Submit(&Request{Kind: Read, LBA: lbas[i], Blocks: 1}, func() { submitNext(i + 1) })
	}
	submitNext(0)
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}

	// Deep queue: all at once.
	k2 := sim.NewKernel()
	d2 := NewHDD(k2, "d2", p)
	var reqs []*Request
	for _, l := range lbas {
		reqs = append(reqs, &Request{Kind: Read, LBA: l, Blocks: 1})
	}
	times := submitAndRun(t, d2, reqs)
	var deepTotal time.Duration
	for _, c := range times {
		if c > deepTotal {
			deepTotal = c
		}
	}

	if deepTotal >= serialTotal {
		t.Fatalf("deep queue (%v) not faster than serial (%v)", deepTotal, serialTotal)
	}
	if float64(deepTotal) > 0.85*float64(serialTotal) {
		t.Fatalf("expected >=15%% improvement from queueing: deep %v vs serial %v", deepTotal, serialTotal)
	}
}

func TestHDDStats(t *testing.T) {
	k := sim.NewKernel()
	d := NewHDD(k, "d", DefaultHDD())
	d.Submit(&Request{Kind: Read, LBA: 0, Blocks: 4}, func() {})
	d.Submit(&Request{Kind: Write, LBA: 100, Blocks: 2}, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.BlocksRead != 4 || s.BlocksWrite != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime <= 0 {
		t.Fatal("no busy time recorded")
	}
}

func TestHDDEmptyRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k := sim.NewKernel()
	d := NewHDD(k, "d", DefaultHDD())
	d.Submit(&Request{Kind: Read, LBA: 0, Blocks: 0}, func() {})
}

func TestSSDParallelism(t *testing.T) {
	p := DefaultSSD()
	p.Channels = 4
	p.ReadLatency = time.Millisecond
	p.BandwidthBs = 1 << 40 // make transfer negligible

	k := sim.NewKernel()
	d := NewSSD(k, "ssd", p)
	var reqs []*Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, &Request{Kind: Read, LBA: int64(i * 100), Blocks: 1})
	}
	times := submitAndRun(t, d, reqs)
	var last time.Duration
	for _, c := range times {
		if c > last {
			last = c
		}
	}
	// 8 requests, 4 channels, 1ms each => 2ms (+tiny transfer).
	if last < 2*time.Millisecond || last > 2*time.Millisecond+time.Millisecond/10 {
		t.Fatalf("8 reqs on 4 channels took %v, want ~2ms", last)
	}
}

func TestSSDFasterThanHDDRandom(t *testing.T) {
	lbas := make([]int64, 32)
	for i := range lbas {
		lbas[i] = (int64(i)*7919 + 13) * 4096 % DefaultHDD().Blocks
	}
	mk := func(dev Device) time.Duration {
		var reqs []*Request
		for _, l := range lbas {
			reqs = append(reqs, &Request{Kind: Read, LBA: l, Blocks: 1})
		}
		times := submitAndRun(t, dev, reqs)
		var last time.Duration
		for _, c := range times {
			if c > last {
				last = c
			}
		}
		return last
	}
	kh := sim.NewKernel()
	hdd := mk(NewHDD(kh, "h", DefaultHDD()))
	ks := sim.NewKernel()
	ssd := mk(NewSSD(ks, "s", DefaultSSD()))
	if ssd*20 > hdd {
		t.Fatalf("SSD (%v) should be >20x faster than HDD (%v) on random reads", ssd, hdd)
	}
}

func TestRAID0SplitsAcrossMembers(t *testing.T) {
	k := sim.NewKernel()
	m0 := NewHDD(k, "m0", DefaultHDD())
	m1 := NewHDD(k, "m1", DefaultHDD())
	r := NewRAID0("raid", 128, m0, m1) // 512 KiB chunks

	// A 256-block (1 MiB) read spans two full chunks: one per member.
	done := false
	r.Submit(&Request{Kind: Read, LBA: 0, Blocks: 256}, func() { done = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("request did not complete")
	}
	s0, s1 := m0.Stats(), m1.Stats()
	if s0.BlocksRead != 128 || s1.BlocksRead != 128 {
		t.Fatalf("member reads = %d, %d; want 128 each", s0.BlocksRead, s1.BlocksRead)
	}
}

func TestRAID0ParallelSpeedup(t *testing.T) {
	// Two concurrent streams at distant addresses: a 2-member stripe
	// should service them roughly in parallel.
	run := func(members int) time.Duration {
		k := sim.NewKernel()
		var devs []Device
		for i := 0; i < members; i++ {
			devs = append(devs, NewHDD(k, "m", DefaultHDD()))
		}
		var dev Device = devs[0]
		if members > 1 {
			dev = NewRAID0("raid", 128, devs...)
		}
		var reqs []*Request
		for i := 0; i < 32; i++ {
			// Alternate between two far-apart regions, chunk-aligned.
			base := int64(0)
			if i%2 == 1 {
				base = 128 // second chunk -> second member on 2-disk raid
			}
			reqs = append(reqs, &Request{Kind: Read, LBA: base + int64(i/2)*256, Blocks: 8})
		}
		var last time.Duration
		times := make([]time.Duration, len(reqs))
		for i, r := range reqs {
			i := i
			dev.Submit(r, func() { times[i] = k.Now() })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for _, c := range times {
			if c > last {
				last = c
			}
		}
		return last
	}
	single := run(1)
	raid := run(2)
	if float64(raid) > 0.75*float64(single) {
		t.Fatalf("raid %v not sufficiently faster than single %v", raid, single)
	}
}

// capacity is a device's size in blocks; a stripe set holds its
// smallest member's capacity once per member.
func capacity(d Device) int64 {
	switch d := d.(type) {
	case *HDD:
		return d.p.Blocks
	case *SSD:
		return d.p.Blocks
	case *RAID0:
		smallest := int64(math.MaxInt64)
		for _, m := range d.members {
			smallest = min(smallest, capacity(m))
		}
		return smallest * int64(len(d.members))
	}
	panic(fmt.Sprintf("capacity of %T", d))
}

func TestRAID0Blocks(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultHDD()
	m0 := NewHDD(k, "m0", p)
	m1 := NewHDD(k, "m1", p)
	r := NewRAID0("raid", 128, m0, m1)
	if c := capacity(r); c != 2*p.Blocks {
		t.Fatalf("capacity = %d, want %d", c, 2*p.Blocks)
	}
	if r.Parallelism() != 2 {
		t.Fatalf("Parallelism() = %d, want 2", r.Parallelism())
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Kind.String broken")
	}
}

// Property: every submitted request completes exactly once, regardless of
// address pattern, on each device type.
func TestQuickAllRequestsComplete(t *testing.T) {
	f := func(addrs []uint32, write bool) bool {
		if len(addrs) == 0 {
			return true
		}
		if len(addrs) > 100 {
			addrs = addrs[:100]
		}
		k := sim.NewKernel()
		hdd0 := NewHDD(k, "h0", DefaultHDD())
		hdd1 := NewHDD(k, "h1", DefaultHDD())
		raid := NewRAID0("r", 128, hdd0, hdd1)
		ssd := NewSSD(k, "s", DefaultSSD())
		for _, dev := range []Device{raid, ssd} {
			completions := 0
			kind := Read
			if write {
				kind = Write
			}
			for _, a := range addrs {
				lba := int64(a) % (capacity(dev) - 64)
				dev.Submit(&Request{Kind: kind, LBA: lba, Blocks: int(a%8) + 1}, func() { completions++ })
			}
			if err := k.Run(); err != nil {
				return false
			}
			if completions != len(addrs) {
				return false
			}
			if dev.Outstanding() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: RAID0 sub-request block counts always sum to the parent's.
func TestQuickRAIDConservation(t *testing.T) {
	f := func(lba uint32, blocks uint8, chunk uint8, members uint8) bool {
		nm := int(members%3) + 2
		cb := int64(chunk%64) + 1
		nb := int(blocks%200) + 1
		k := sim.NewKernel()
		var devs []Device
		for i := 0; i < nm; i++ {
			devs = append(devs, NewSSD(k, "m", DefaultSSD()))
		}
		r := NewRAID0("raid", cb, devs...)
		done := false
		r.Submit(&Request{Kind: Read, LBA: int64(lba % 100000), Blocks: nb}, func() { done = true })
		if err := k.Run(); err != nil {
			return false
		}
		var total int64
		for _, d := range devs {
			total += d.Stats().BlocksRead
		}
		return done && total == int64(nb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHDDRandomReads(b *testing.B) {
	k := sim.NewKernel()
	d := NewHDD(k, "d", DefaultHDD())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := (int64(i)*2654435761 + 7) % capacity(d)
		d.Submit(&Request{Kind: Read, LBA: lba, Blocks: 1}, func() {})
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// Regression: a completion callback that synchronously submits more
// requests must not race the device into servicing two at once. With
// the busy guard, chained submissions serialize: three equal-cost
// requests take three service times, not two.
func TestHDDNoDoubleServiceFromCompletionCallback(t *testing.T) {
	k := sim.NewKernel()
	d := NewHDD(k, "d", DefaultHDD())
	var t1, t2, t3 time.Duration
	d.Submit(&Request{Kind: Read, LBA: 1_000_000, Blocks: 1}, func() {
		t1 = k.Now()
		// Submit two more from inside the completion callback.
		d.Submit(&Request{Kind: Read, LBA: 20_000_000, Blocks: 1}, func() { t2 = k.Now() })
		d.Submit(&Request{Kind: Read, LBA: 40_000_000, Blocks: 1}, func() { t3 = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t2 == t3 {
		t.Fatalf("two requests completed at the same instant (%v): double service", t2)
	}
	if t3 <= t2 || t2 <= t1 {
		t.Fatalf("completions not serialized: %v, %v, %v", t1, t2, t3)
	}
}
