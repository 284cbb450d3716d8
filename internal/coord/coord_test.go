package coord

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rootreplay/internal/sim"
)

// body is one member's single simulated thread.
type body func(h *Member, th *sim.Thread)

// runCluster co-runs one bare kernel per body as the members of c, the
// way a sharded replay runs its members, and fails the test on a kernel
// error. At every scheduling point of every kernel it asserts that the
// member's coordinator clock never moves back and that the kernel never
// runs ahead of it.
func runCluster(t *testing.T, c *Cluster, bodies ...body) {
	t.Helper()
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	for m, fn := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := sim.NewKernel()
			h := c.Member(m, k)
			var last time.Duration
			k.AddSchedHook(func() {
				c.mu.Lock()
				clock := c.clock[m]
				c.mu.Unlock()
				if clock < last {
					t.Errorf("member %d: clock moved back from %v to %v", m, last, clock)
				}
				if k.Now() > clock {
					t.Errorf("member %d: kernel at %v is ahead of its clock %v", m, k.Now(), clock)
				}
				last = clock
			})
			k.Spawn(fmt.Sprintf("m%d", m), func(th *sim.Thread) { fn(h, th) })
			errs[m] = k.Run()
			h.Done()
			if errs[m] != nil {
				c.Abort()
			}
		}()
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			t.Errorf("member %d: %v", m, err)
		}
	}
}

// await is Await plus the wake-time assertion every test shares: the
// thread resumes at exactly max(v, now) — a wake scheduled into the
// member's past would be clamped by the kernel and land later — and the
// reported wait is max(0, v - now).
func await(t *testing.T, h *Member, th *sim.Thread, edge int32) (v, waited time.Duration) {
	t.Helper()
	k := th.Kernel()
	before := k.Now()
	v, waited = h.Await(th, edge, func() string { return "test await" })
	if want := max(v, before); k.Now() != want {
		t.Errorf("edge %d: parked at %v, published at %v, resumed at %v, want %v", edge, before, v, k.Now(), want)
	}
	if want := max(0, v-before); waited != want {
		t.Errorf("edge %d: waited %v, want %v", edge, waited, want)
	}
	return v, waited
}

func sleepUntil(th *sim.Thread, at time.Duration) {
	if d := at - th.Kernel().Now(); d > 0 {
		th.Sleep(d)
	}
}

// chain runs A→B over n edges: A publishes edge i at (i+1)·10. B awaits
// the even edges as early as it can, so they lie in its future and wake
// it at exactly their time, and the odd ones 5 late, so they lie in its
// past and cost no wait.
func chain(t *testing.T, n int) Stats {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{ID: int32(100 + i), Src: 0, Dst: 1}
	}
	at := func(i int) time.Duration { return time.Duration(i+1) * 10 }
	c := New(2, edges)
	runCluster(t, c,
		func(h *Member, th *sim.Thread) {
			for i := range edges {
				sleepUntil(th, at(i))
				h.Publish(edges[i].ID, at(i))
			}
		},
		func(h *Member, th *sim.Thread) {
			for i := range edges {
				if i%2 == 1 {
					sleepUntil(th, at(i)+5)
				}
				if v, _ := await(t, h, th, edges[i].ID); v != at(i) {
					t.Errorf("edge %d satisfied at %v, want %v", i, v, at(i))
				}
			}
		})
	return c.Stats()
}

func TestChain(t *testing.T) {
	st := chain(t, 6)
	// Even edges: B arrives 5 after the previous, odd, edge's time.
	want := []int64{10, 0, 5, 0, 5, 0}
	if !reflect.DeepEqual(st.EdgeWaitNs, want) {
		t.Errorf("EdgeWaitNs = %v, want %v", st.EdgeWaitNs, want)
	}
	for i, ok := range st.EdgePublished {
		if !ok {
			t.Errorf("edge %d not reported published", i)
		}
	}
	if st.FlushBatches != 6 || st.FlushMaxBatch != 1 {
		t.Errorf("flushes = %d (max %d), want 6 (max 1)", st.FlushBatches, st.FlushMaxBatch)
	}
}

// The wake queue's memory follows the pending wakes: over a few thousand
// edges, half of them parking, a chain costs about one allocation per
// edge (a waiter and a wake closure per park). Dropping the delivered
// head by re-slicing left the queue without capacity, so every addWake
// reallocated it, and read 1.53 here.
func TestChainAllocs(t *testing.T) {
	const n = 4000
	chain(t, n) // warm the runtime's pools
	perEdge := testing.AllocsPerRun(3, func() { chain(t, n) }) / n
	if perEdge > 1.25 {
		t.Errorf("%.2f allocations per edge, ceiling 1.25", perEdge)
	}
}

// The Stats wait of an edge is max(0, v - now) whichever way the wake was
// queued: by the publisher's flush finding the waiter (e1), or by Await
// finding the edge already published in the member's future (e4). The
// reverse edge e2 fixes the host order without host synchronisation: B's
// publication of e2 becomes visible at B's first Advance after its
// thread has parked in Await(e1), and A publishes e1 and e4 only after
// it has seen e2.
func TestStatsWaitOnBothRoutes(t *testing.T) {
	const e1, e2, e4 = 1, 2, 4
	edges := []Edge{{ID: e1, Src: 0, Dst: 1}, {ID: e2, Src: 1, Dst: 0}, {ID: e4, Src: 0, Dst: 1}}
	c := New(2, edges)
	published := func(id int32) time.Duration {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pubAt[c.dense[id]]
	}
	runCluster(t, c,
		func(h *Member, th *sim.Thread) {
			await(t, h, th, e2)
			sleepUntil(th, 50)
			h.Publish(e1, 50)
			h.Publish(e4, 80)
		},
		func(h *Member, th *sim.Thread) {
			th.Sleep(10)
			h.Publish(e2, 10)
			if at := published(e1); at != unpublished {
				t.Errorf("e1 already published at %v: not the flush route", at)
			}
			await(t, h, th, e1)
			if at := published(e4); at != 80 {
				t.Errorf("e4 published at %v, want 80: not the inject route", at)
			}
			await(t, h, th, e4)
		})
	st := c.Stats()
	if want := []int64{40, 10, 30}; !reflect.DeepEqual(st.EdgeWaitNs, want) {
		t.Errorf("EdgeWaitNs = %v, want %v", st.EdgeWaitNs, want)
	}
	if st.FlushMaxBatch != 2 {
		t.Errorf("FlushMaxBatch = %d, want 2 (e1 and e4 in one flush)", st.FlushMaxBatch)
	}
}

// exchange is the zero-lookahead cycle: two members that each hold an
// unpublished edge into the other until the end, so neither gate can
// open and every clock advance is a quiescent grant. It returns the
// order in which the members' steps ran.
func exchange(t *testing.T) []string {
	const ab, ba = 7, 3
	edges := []Edge{{ID: ab, Src: 0, Dst: 1}, {ID: ba, Src: 1, Dst: 0}}
	var mu sync.Mutex
	var log []string
	member := func(name string, out, in int32, steps ...time.Duration) body {
		return func(h *Member, th *sim.Thread) {
			for _, at := range steps {
				sleepUntil(th, at)
				mu.Lock()
				log = append(log, fmt.Sprintf("%s@%d", name, th.Kernel().Now()))
				mu.Unlock()
			}
			h.Publish(out, th.Kernel().Now())
			await(t, h, th, in)
		}
	}
	c := New(2, edges)
	runCluster(t, c,
		member("A", ab, ba, 10, 30, 60),
		member("B", ba, ab, 20, 30, 40, 50))
	if st := c.Stats(); st.Grants < int64(len(log))-1 {
		t.Errorf("%d grants for %d gated steps", st.Grants, len(log))
	}
	return log
}

// Grants go to the smallest (target, member) — at the tie on 30, A's
// step runs before B's — and the sequence is the same on every run.
func TestExchangeGrantOrder(t *testing.T) {
	want := []string{"A@10", "B@20", "A@30", "B@30", "B@40", "B@50", "A@60"}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for run := 0; run < 200; run++ {
			if got := exchange(t); !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS %d run %d: steps ran as %v, want %v", procs, run, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// A source that finishes without publishing leaves its awaiter with
// nothing to wait for: the cluster is declared deadlocked and the
// awaiter's kernel stops instead of hanging.
func TestFinishedSourceDeadlocks(t *testing.T) {
	c := New(2, []Edge{{ID: 1, Src: 0, Dst: 1}})
	runCluster(t, c,
		func(h *Member, th *sim.Thread) { th.Sleep(10) },
		func(h *Member, th *sim.Thread) {
			h.Await(th, 1, func() string { return "never published" })
			t.Error("Await returned on an edge nobody published")
		})
	if !c.Deadlocked() {
		t.Error("Deadlocked() = false")
	}
	if st := c.Stats(); st.EdgePublished[0] || st.EdgeWaitNs[0] != 0 {
		t.Errorf("unpublished edge reported as %+v", st)
	}
}

// Abort from outside the cluster unblocks every parked pacer. The third
// member holds its kernel goroutine on a host channel, so the cluster is
// not quiescent and nothing but the abort can end the other two's wait.
func TestAbortUnblocksParkedPacers(t *testing.T) {
	c := New(3, []Edge{{ID: 1, Src: 0, Dst: 1}, {ID: 2, Src: 1, Dst: 0}})
	hold := make(chan struct{})
	go func() {
		for c.Stats().Parks < 2 {
			runtime.Gosched()
		}
		c.Abort()
		close(hold)
	}()
	never := func(edge int32) body {
		return func(h *Member, th *sim.Thread) {
			h.Await(th, edge, func() string { return "until abort" })
			t.Errorf("Await(%d) returned", edge)
		}
	}
	runCluster(t, c, never(2), never(1),
		func(h *Member, th *sim.Thread) { <-hold })
	if c.Deadlocked() {
		t.Error("an abort was reported as a deadlock")
	}
}
