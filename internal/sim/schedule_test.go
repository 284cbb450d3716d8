package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// The schedule golden pins the order in which the kernel resumes
// threads and dispatches events. testdata/schedule.golden was recorded
// with -update-schedule at the last commit whose threads were goroutines
// handing off through channels (f9a8ec5); any kernel that changes how a
// context switch is made must reproduce it byte for byte. Regenerate it
// only for a deliberate change to scheduling order.
var updateSchedule = flag.Bool("update-schedule", false, "rewrite testdata/schedule.golden")

const (
	scheduleGolden = "testdata/schedule.golden"
	scheduleSeeds  = 12
)

// schedProg is one seeded random program. Its random choices are drawn
// while it runs, in execution order, so two kernels agree on the log
// only if they agree on every scheduling decision before each draw.
type schedProg struct {
	k      *Kernel
	r      *rand.Rand
	log    bytes.Buffer
	parked []*Thread
	conds  [2]*Cond
	timers [2]*Timer
	spawns int
}

// resume logs that t got the CPU (at body start and after every
// blocking call returns).
func (p *schedProg) resume(t *Thread) {
	fmt.Fprintf(&p.log, "r %d %d\n", p.k.now, t.id)
}

// event logs a timed callback firing in kernel context.
func (p *schedProg) event(what string, arg int) {
	fmt.Fprintf(&p.log, "e %d %s %d\n", p.k.now, what, arg)
}

func (p *schedProg) us(n int) time.Duration {
	return time.Duration(1+p.r.Intn(n)) * time.Microsecond
}

func (p *schedProg) spawn(ops, depth int) {
	p.spawns++
	p.k.Spawn(fmt.Sprintf("t%d", p.spawns), func(t *Thread) {
		p.resume(t)
		for i := 0; i < ops; i++ {
			p.step(t, depth)
		}
	})
}

// spawnPipe starts a producer/consumer pair over a fresh Chan; the
// producer closes it, so the pair always terminates.
func (p *schedProg) spawnPipe() {
	ch := NewChan[int](p.k, p.r.Intn(3))
	n := 1 + p.r.Intn(5)
	p.k.Spawn("producer", func(t *Thread) {
		p.resume(t)
		for i := 0; i < n; i++ {
			ch.Send(t, i)
			p.resume(t)
			if p.r.Intn(2) == 0 {
				t.Sleep(p.us(20))
				p.resume(t)
			}
		}
		ch.Close()
	})
	p.k.Spawn("consumer", func(t *Thread) {
		p.resume(t)
		for {
			_, ok := ch.Recv(t)
			p.resume(t)
			if !ok {
				return
			}
			if p.r.Intn(3) == 0 {
				t.Sleep(p.us(20))
				p.resume(t)
			}
		}
	})
}

// step performs one random operation on behalf of t. Every blocking
// operation arms its own safety wake, so programs terminate; the safety
// wakes land on whatever the thread is blocked on by then, which makes
// spurious wakeups part of the pinned schedule.
func (p *schedProg) step(t *Thread, depth int) {
	k := p.k
	switch p.r.Intn(15) {
	case 0, 1:
		t.Sleep(p.us(40))
		p.resume(t)
	case 2:
		t.Sleep(0)
		p.resume(t)
	case 3:
		t.Yield()
		p.resume(t)
	case 4:
		p.parked = append(p.parked, t)
		k.After(p.us(60), func() {
			p.event("unpark", t.id)
			k.Unpark(t)
		})
		t.Park("schedule test")
		p.resume(t)
	case 5:
		if len(p.parked) > 0 {
			u := p.parked[0]
			p.parked = p.parked[1:]
			k.Unpark(u)
		}
	case 6:
		ci := p.r.Intn(len(p.conds))
		k.After(p.us(80), func() {
			p.event("broadcast", ci)
			p.conds[ci].Broadcast()
		})
		p.conds[ci].Wait(t, "schedule test")
		p.resume(t)
	case 7:
		p.conds[p.r.Intn(len(p.conds))].Signal()
	case 8:
		p.conds[p.r.Intn(len(p.conds))].Broadcast()
	case 9:
		if depth < 2 {
			p.spawn(p.r.Intn(6), depth+1) // zero ops: a body that never blocks
		}
	case 10:
		if depth < 2 {
			ops := p.r.Intn(6)
			k.After(p.us(30), func() {
				p.event("spawn", ops)
				p.spawn(ops, depth+1)
			})
		}
	case 11, 12:
		p.timers[p.r.Intn(len(p.timers))].Reset(p.us(50))
	case 13:
		p.timers[p.r.Intn(len(p.timers))].Stop()
	case 14:
		if depth < 2 {
			p.spawnPipe()
		}
	}
}

// schedOpts says what rides along with a schedule run.
type schedOpts struct {
	hooks  bool // log an "h" line with the run-queue depth at every scheduling point
	states bool // with hooks: add every unfinished thread's state and the event sequence number
	paced  bool // install nopPacer, so that no sleep is taken in place
	sparse bool // two long threads and no pipe where the golden has six and one: mostly lone sleepers

	advances *bytes.Buffer // with paced: the pacer logs every Advance call here
}

// nopPacer never objects to an advance. A paced kernel must ask before
// its clock moves, so installing it turns sleepInPlace off and nothing
// else: the differential tests need no switch in the kernel. With log
// set it writes an "a next now eseq" line for every call.
type nopPacer struct {
	k   *Kernel
	log *bytes.Buffer
}

func (p nopPacer) Advance(next time.Duration) bool {
	if p.log != nil {
		fmt.Fprintf(p.log, "a %d %d %d\n", next, p.k.now, p.k.eseq)
	}
	return false
}

// runSchedule runs the program for seed and returns its log — "r" lines
// for resumes, "e" lines for events and, with hooks, an "h" line at
// every scheduling point — and how many of its sleeps were in place.
func runSchedule(seed int64, o schedOpts) (log string, inPlace uint64) {
	k := NewKernel()
	p := &schedProg{k: k, r: rand.New(rand.NewSource(seed))}
	for i := range p.conds {
		p.conds[i] = NewCond(k)
	}
	for i := range p.timers {
		i := i
		p.timers[i] = k.NewTimer(func() {
			p.event("timer", i)
			p.conds[i].Signal()
		})
	}
	if o.paced {
		k.SetPacer(nopPacer{k: k, log: o.advances})
	}
	if o.hooks {
		k.AddSchedHook(func() {
			fmt.Fprintf(&p.log, "h %d %d", k.now, k.RunqLen())
			if o.states {
				// k.threads is unordered but moves only when a thread
				// ends, so equal schedules list it equally.
				for _, t := range k.threads {
					fmt.Fprintf(&p.log, " %d:%v:%s", t.id, t.state, t.BlockReason())
				}
				fmt.Fprintf(&p.log, " current=%v seq=%d", k.current != nil, k.eseq)
			}
			p.log.WriteByte('\n')
		})
	}
	if o.sparse {
		for i := 0; i < 2; i++ {
			p.spawn(60+p.r.Intn(60), 1)
		}
	} else {
		for i := 0; i < 6; i++ {
			p.spawn(10+p.r.Intn(20), 0)
		}
		p.spawnPipe()
	}
	err := k.Run()
	fmt.Fprintf(&p.log, "end %d %v\n", k.now, err)
	_, inPlace = k.Sleeps()
	return p.log.String(), inPlace
}

func scheduleLog(hooks bool) string {
	var b strings.Builder
	for seed := int64(1); seed <= scheduleSeeds; seed++ {
		fmt.Fprintf(&b, "== seed %d\n", seed)
		log, _ := runSchedule(seed, schedOpts{hooks: hooks})
		b.WriteString(log)
	}
	return b.String()
}

// withoutHookLines drops the "h" lines from a hooked log; what is left
// is what a run without hooks must produce.
func withoutHookLines(log string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(log, "\n") {
		if !strings.HasPrefix(line, "h ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func diffSchedule(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d is %q, golden has %q", what, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", what, len(g), len(w))
}

// TestScheduleGolden requires the kernel to resume threads and dispatch
// events in exactly the recorded order, with sched hooks installed and
// without; the resume sequence is the same in both.
func TestScheduleGolden(t *testing.T) {
	hooked := scheduleLog(true)
	if *updateSchedule {
		if err := os.WriteFile(scheduleGolden, []byte(hooked), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(scheduleGolden)
	if err != nil {
		t.Fatal(err)
	}
	diffSchedule(t, "with hooks", hooked, string(golden))
	diffSchedule(t, "without hooks", scheduleLog(false), withoutHookLines(string(golden)))
}

// TestSleepInPlaceMatchesPacedSchedule is the equivalence of the two
// sleep paths: on every golden seed a hook that logs the clock, the
// run-queue depth and each thread's state and wait reason sees the same
// thing at the same scheduling points whether lone sleeps advance the
// clock in place or, under a no-op Pacer, all go through the event
// queue. The unpaced dense side is the run TestScheduleGolden pins; the
// sparse programs are there because six busy threads seldom leave one
// alone.
func TestSleepInPlaceMatchesPacedSchedule(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		var taken uint64
		for seed := int64(1); seed <= scheduleSeeds; seed++ {
			for _, o := range []schedOpts{{sparse: sparse}, {sparse: sparse, hooks: true, states: true}} {
				got, inPlace := runSchedule(seed, o)
				o.paced = true
				want, pacedInPlace := runSchedule(seed, o)
				diffSchedule(t, fmt.Sprintf("seed %d, %+v: in place vs paced", seed, o), got, want)
				if pacedInPlace != 0 {
					t.Errorf("seed %d: %d sleeps in place on a paced kernel", seed, pacedInPlace)
				}
				taken += inPlace
			}
		}
		if taken == 0 {
			t.Fatalf("sparse=%v: no seed took a sleep in place, the comparison covers nothing", sparse)
		}
		t.Logf("sparse=%v: %d sleeps in place over %d seeds, with and without hooks", sparse, taken, scheduleSeeds)
	}
}

// pacerAdvanceSums are the SHA-256 sums of the Advance logs of
// TestPacerAdvancePinned, dense programs then sparse ones, seed 1 first.
// They were recorded with the kernel whose event queue was a two-level
// timer wheel with an instant batch.
var pacerAdvanceSums = [2][scheduleSeeds]string{
	{
		"c6a3f5ee682e4315460e5142f9f3847defc406f3a8aab68b07ab7ee34874c448",
		"f4ee4fd94e6fa1b9f8127291d176abb4467c352199d3503f302ba397af072d61",
		"61e2db753bd0d71d1112a41a53c22ad5c6e0abf11c5a0db43079d5c1251c9c53",
		"5b38f7cb08135b419f50c2daecbc6ed24390d6392508504194b615c77a1ad3c9",
		"8a3494259ca9abaf0b7e27d082818cfaef0798af142c19ea7ef1a8705dd0d30e",
		"091976df7957044b97eef2883487ff8df685ea50a0651b282f551fd77e7d9c00",
		"ffc4e1f06877808c247cac127803bcdcf699fde82a4a44725a0c62cb18a87325",
		"d25e0cdfb212f2c87fa81bbe2cf3c6289833e0cd55795cf2854d28665482a06d",
		"4e5d929bdfadd70d9f9ba2ed731237510aad2114369d63b299a99dff8973d0ef",
		"3f2436968ceb2f3bc332b65389d9262838e3ef25fe8600dfe2b71230501639fc",
		"5eca8f4589851f2976aac1508485d2e6303df755b7d0eadd1a23117f9aaacb00",
		"15d653857aa3e125942de1c5edfa86c44a5d721fb900e3a827ab249abada8ad5",
	},
	{
		"712fcd117b78e5036e9991c667fefdc1091713eedf156766b7def751713c7494",
		"0145ec1a2d3cb72bc7df06d34585ead319b1de9a917cb380f53a277de27af198",
		"7b7e526e800ccf49fbfd4ba433e7717bd6682a7b68c869f9ba7aa538db9ebe32",
		"3b7a2daa75cb935e0a186e1328658e11ae3de5b293a1aa8e7c159c2f88cd1909",
		"f1a01eddd258ab228b83660a511b90be920e057b5a5a1ada1ad046f77d0ec4ea",
		"e813e0a384ff3e06101db18289a4f167c48c1d59704a65b9cb15563af2223f95",
		"19c7048e7c2f958ceacb3a40f80bc03e4105f74261209be212d91fdd782b7965",
		"3c8a155e55c7a3a3b0ffefa45167f23a5ebb42354bef21c6af7a745b11e8f779",
		"a8745918dce58ac00bf265bab0e5bddd2795365fe41609cb963a3be0f7289605",
		"2a76318cb9ad18ee0558a12f022ff5c4f23fd22fb351fe5060b94fd10cc48904",
		"43d478aa838eac257090e955a6ee20cb3d33869c6ced0505c26b23c14c5d168d",
		"840a02b70b5a2b748847f50bf33a92d09254f08cdf9e1518c9087a35d514beea",
	},
}

// TestPacerAdvancePinned pins the pacer conversation: the instants a
// paced kernel asks about, at which clock and sequence number.
// schedule.golden logs no Advance call, and the Advance calls are where
// a parallel replay's members meet.
func TestPacerAdvancePinned(t *testing.T) {
	for i, sparse := range []bool{false, true} {
		for seed := int64(1); seed <= scheduleSeeds; seed++ {
			var advances bytes.Buffer
			runSchedule(seed, schedOpts{paced: true, sparse: sparse, advances: &advances})
			if advances.Len() == 0 {
				t.Fatalf("sparse=%v seed %d: the pacer was never asked", sparse, seed)
			}
			sum := fmt.Sprintf("%x", sha256.Sum256(advances.Bytes()))
			if want := pacerAdvanceSums[i][seed-1]; sum != want {
				t.Errorf("sparse=%v seed %d: Advance log sha256 %s, pinned %s", sparse, seed, sum, want)
			}
		}
	}
}
