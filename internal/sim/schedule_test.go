package sim

import (
	"bytes"
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
}

// nopPacer never objects to an advance. A paced kernel must ask before
// its clock moves, so installing it turns sleepInPlace off and nothing
// else: the differential tests need no switch in the kernel.
type nopPacer struct{}

func (nopPacer) Advance(time.Duration) bool { return false }

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
		k.SetPacer(nopPacer{})
	}
	if o.hooks {
		k.AddSchedHook(func() {
			fmt.Fprintf(&p.log, "h %d %d", k.now, k.RunqLen())
			if o.states {
				// k.threads is unordered but moves only when a thread
				// ends, so equal schedules list it equally.
				for _, t := range k.threads {
					fmt.Fprintf(&p.log, " %d:%v:%s", t.id, t.State(), t.BlockReason())
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
// clock in place or, under a no-op Pacer, all go through the wheel. The
// unpaced dense side is the run TestScheduleGolden pins; the sparse
// programs are there because six busy threads seldom leave one alone.
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
