// Package sim provides a deterministic discrete-event simulation kernel.
//
// All timing in the ROOT/ARTC reproduction runs on sim's virtual clock:
// workloads, the simulated storage stack, and the trace replayer execute
// as simulated threads (coroutines) scheduled one at a time by a Kernel.
// Because exactly one thread runs at any instant and the run queue and
// event queue are FIFO with deterministic tie-breaking, a simulation is
// fully reproducible: the same program yields the same virtual-time
// results on every run, on every host.
//
// Each thread body is a coroutine (iter.Pull) and there is one switching
// path: Run resumes the head of the run queue with next(), and a thread
// that blocks, yields or returns gives the CPU back to Run with yield().
// A coroutine switch never enters the Go scheduler. Because every switch
// passes through Run, timed events and the Pacer execute on Run's
// goroutine, never inside a thread, so a Pacer may block on host
// synchronisation (sleepInPlace switches nothing, and asks no Pacer). A
// panic in a body surfaces from Run as a *ThreadPanic; threads Run leaves
// unfinished (Stop, deadlock, a panic) are unwound before it returns, so
// no goroutine outlives Run.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// ThreadState describes the scheduling state of a simulated thread.
type ThreadState int

const (
	// StateRunnable means the thread is in the kernel's run queue.
	StateRunnable ThreadState = iota
	// StateRunning means the thread is the one currently executing.
	StateRunning
	// StateBlocked means the thread is parked waiting to be woken.
	StateBlocked
	// StateDone means the thread's body has returned.
	StateDone
)

// String returns a short human-readable name for the state.
func (s ThreadState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// Completer receives pooled I/O-completion events. Devices implement it
// so a completion can be scheduled as a tagged event (opcode + operand
// words) instead of a captured closure; the tag routes the completion
// inside the device (a queue slot, or a sentinel like the HDD's
// elevator kick).
type Completer interface {
	Complete(tag uint64)
}

// Timer is a reusable timed callback. Unlike At/After, whose one-shot
// callbacks cannot be revoked, a Timer is allocated once and re-armed
// with Reset; Stop revokes the pending expiry. Cancellation is lazy:
// the underlying pooled event stays queued and is skipped when it
// fires, so — exactly like the generation-counter idiom it replaces —
// a stopped timer still holds the simulation alive until its original
// expiry instant.
type Timer struct {
	k  *Kernel
	fn func()
	ev *event // pending event; nil when stopped or fired
}

// NewTimer returns a stopped timer that runs fn in kernel context each
// time it expires.
func (k *Kernel) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{k: k, fn: fn}
}

// Reset arms the timer to fire d from now, revoking any pending expiry
// first. Non-positive d fires at the current instant.
func (tm *Timer) Reset(d time.Duration) {
	tm.ev = nil // orphan any pending event; it fires as a no-op
	e := tm.k.newEvent(tm.k.after(d))
	e.op = opTimer
	e.tm = tm
	tm.ev = e
	tm.k.events.push(e)
}

// Stop revokes the pending expiry, if any. The callback will not run
// until the next Reset.
func (tm *Timer) Stop() { tm.ev = nil }

// Thread is a simulated thread of execution. A Thread's body runs as a
// coroutine: it executes only between the kernel resuming it and the
// thread's next blocking call (Sleep, Park, Cond.Wait, ...).
type Thread struct {
	k     *Kernel
	id    int
	name  string
	state ThreadState
	slot  int // index in k.threads until the body ends

	// The coroutine's three handles: Run resumes the body with next, the
	// body gives the CPU back with yield, and stop unwinds a body that
	// will never be resumed. retire drops them, so a finished Thread
	// does not pin whatever its body captured.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// blockReason / blockReasonf describe what the thread is waiting
	// for, used in deadlock reports. blockReasonf, when set, is invoked
	// lazily so hot paths can block without formatting a string.
	blockReason  string
	blockReasonf func() string
}

// BlockReason returns the thread's current wait description (empty when
// not blocked), rendering a lazy reason if one was supplied.
func (t *Thread) BlockReason() string {
	if t.blockReasonf != nil {
		return t.blockReasonf()
	}
	return t.blockReason
}

// ID returns the thread's kernel-assigned identifier (1-based, in spawn
// order).
func (t *Thread) ID() int { return t.id }

// Name returns the name given at spawn time.
func (t *Thread) Name() string { return t.name }

// Kernel is a discrete-event simulator with cooperative simulated threads.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now     time.Duration
	eseq    uint64
	events  queue
	runq    []*Thread
	current *Thread
	live    int // spawned threads whose bodies have not returned
	nextID  int
	threads []*Thread // unfinished threads, unordered: deadlock reports and reap

	// pool is the event free list. Dispatched events are cleared and
	// recycled here, so steady-state scheduling allocates nothing.
	pool []*event

	// schedHooks run at every scheduling point in Run (before a thread is
	// resumed or a timed event dispatched). Observability probes hang off
	// them; with none installed the cost is a single length check.
	schedHooks []*schedHook

	// stopped is set by Stop to abort Run at the next scheduling point;
	// running holds while Run's loop is live, not while it reaps.
	stopped, running bool

	// sleeps counts Sleep(d > 0) calls, inPlace those sleepInPlace served.
	sleeps, inPlace uint64

	// pacer, when set, gates every virtual-clock advance (see Pacer).
	pacer Pacer
}

// PacerIdle is the Advance argument when the kernel has live threads
// but no pending events: only an external wake can make progress.
const PacerIdle = time.Duration(-1)

// Pacer gates virtual-clock advancement, the hook parallel replay uses
// to keep one kernel's clock from outrunning its peers. Advance is
// called in kernel context (the Run goroutine) just before the clock
// would move forward to next — never for events at the current instant
// — and with next == PacerIdle when the kernel is out of work but
// threads remain blocked. It may block the kernel, and it may inject
// work (At, Unpark, Timer.Reset) before returning. Returning true tells
// the kernel to look at its run queue again before dispatching anything.
// Returning false lets the kernel proceed: dispatch the earliest pending
// event, or — after PacerIdle — declare deadlock. Event order does not
// depend on the answer: an injected event earlier than next is the
// earliest either way, and none is earlier than now.
type Pacer interface {
	Advance(next time.Duration) bool
}

// SetPacer installs (or, with nil, removes) the kernel's pacer.
func (k *Kernel) SetPacer(p Pacer) { k.pacer = p }

// schedHook wraps a hook function so AddSchedHook can identify it for
// removal (func values are not comparable).
type schedHook struct{ fn func() }

// AddSchedHook installs fn to run at every scheduling point of Run: just
// before a thread is resumed or a timed event is dispatched. Hooks are
// for sampling probes (run-queue depth, device state) and must not block,
// spawn or schedule. They run in kernel order, but those of a sleep taken
// in place (sleepInPlace) run on the sleeping thread's stack. The returned
// func removes the hook; removing during Run takes effect at the next
// scheduling point.
func (k *Kernel) AddSchedHook(fn func()) (remove func()) {
	h := &schedHook{fn: fn}
	k.schedHooks = append(k.schedHooks, h)
	return func() {
		for i, cand := range k.schedHooks {
			if cand == h {
				k.schedHooks = append(k.schedHooks[:i], k.schedHooks[i+1:]...)
				return
			}
		}
	}
}

// RunqLen reports the number of runnable (queued, not running) threads.
func (k *Kernel) RunqLen() int { return len(k.runq) }

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Sleeps reports how many positive-duration Sleep calls the kernel has
// served and how many of them advanced the clock in place.
func (k *Kernel) Sleeps() (total, inPlace uint64) { return k.sleeps, k.inPlace }

// after returns now+d, saturating where the sum would wrap: a sleep
// "forever" must not wake at once.
func (k *Kernel) after(d time.Duration) time.Duration {
	if d > math.MaxInt64-k.now {
		return math.MaxInt64
	}
	return k.now + d
}

// newEvent takes an event from the pool (or allocates one) and stamps
// it with the clamped time and the next FIFO sequence number.
func (k *Kernel) newEvent(at time.Duration) *event {
	if at < k.now {
		at = k.now
	}
	var e *event
	if n := len(k.pool); n > 0 {
		e = k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
	} else {
		e = &event{}
	}
	k.eseq++
	e.at = at
	e.seq = k.eseq
	return e
}

// release clears an event's operands and returns it to the pool.
func (k *Kernel) release(e *event) {
	e.th = nil
	e.fn = nil
	e.c = nil
	e.tm = nil
	e.tag = 0
	k.pool = append(k.pool, e)
}

// At schedules fn to run in kernel context at absolute virtual time at.
// Scheduling in the past (at < Now) runs the event at the current time.
func (k *Kernel) At(at time.Duration, fn func()) {
	e := k.newEvent(at)
	e.op = opFunc
	e.fn = fn
	k.events.push(e)
}

// After schedules fn to run in kernel context d from now.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.At(k.after(d), fn)
}

// AfterComplete schedules c.Complete(tag) to run in kernel context d
// from now. It is the allocation-free completion path: the event is
// pooled and carries only the opcode and operand words, no closure.
func (k *Kernel) AfterComplete(d time.Duration, c Completer, tag uint64) {
	e := k.newEvent(k.after(d))
	e.op = opComplete
	e.c = c
	e.tag = tag
	k.events.push(e)
}

// Spawn creates a new simulated thread running fn and places it at the
// back of the run queue. It may be called before Run or from within any
// thread or event.
func (k *Kernel) Spawn(name string, fn func(t *Thread)) *Thread {
	k.nextID++
	t := &Thread{
		k:     k,
		id:    k.nextID,
		name:  name,
		state: StateRunnable,
		slot:  len(k.threads),
	}
	k.live++
	k.threads = append(k.threads, t)
	t.next, t.stop = pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer t.exit()
		fn(t)
	})
	k.runq = append(k.runq, t)
	return t
}

// errKilled is the panic value that unwinds the body of a thread the
// kernel has abandoned; exit swallows it.
var errKilled = errors.New("sim: thread killed")

// ThreadPanic is the value Run panics with when a thread body panics.
// The coroutine re-raises a panic on Run's goroutine only after the
// body's stack has unwound, so the origin is captured here first.
type ThreadPanic struct {
	Thread string // "name(id)", as in deadlock reports
	Value  any    // the value the body panicked with
	Stack  []byte // the body's stack at the panic
}

// Error implements the error interface, so an unrecovered ThreadPanic
// prints the thread and its original stack.
func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("sim: panic in thread %s: %v\n\n%s", p.Thread, p.Value, p.Stack)
}

// exit runs, deferred, when a thread's body ends: by returning, by
// panicking, or by being killed.
func (t *Thread) exit() {
	r := recover()
	t.retire()
	if r != nil && r != errKilled {
		panic(&ThreadPanic{Thread: fmt.Sprintf("%s(%d)", t.name, t.id), Value: r, Stack: debug.Stack()})
	}
}

// retire marks t finished, forgets it in k.threads (swap-remove: the
// slice is unordered) and drops its coroutine.
func (t *Thread) retire() {
	k := t.k
	t.state = StateDone
	k.live--
	n := len(k.threads) - 1
	last := k.threads[n]
	k.threads[t.slot] = last
	last.slot = t.slot
	k.threads[n] = nil
	k.threads = k.threads[:n]
	t.next, t.stop, t.yield = nil, nil, nil
}

// reap unwinds every thread Run is leaving unfinished, so none survives
// as a parked goroutine pinning what its body captured. A started body
// is resumed with yield reporting false and unwinds with errKilled,
// running its deferred calls; a body that never started is discarded.
func (k *Kernel) reap() {
	k.running = false
	for len(k.threads) > 0 {
		t := k.threads[len(k.threads)-1]
		k.current = t // a deferred call in the body may try to block
		t.stop()
		k.current = nil
		if t.state != StateDone {
			t.retire() // never started, so exit did not run
		}
	}
	clear(k.runq)
	k.runq = k.runq[:0]
}

// Stop aborts Run at the next scheduling point. Blocked threads are
// abandoned: Run unwinds them before it returns. Stop is intended for
// error paths and tests, not normal completion.
func (k *Kernel) Stop() { k.stopped = true }

// DeadlockError reports that live threads remain but nothing is runnable
// and no timed event can wake them.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string // "name(id): reason" for each blocked thread
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d thread(s) blocked: %s",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes the simulation until all threads have finished and the
// event queue is empty, or until deadlock. It returns a *DeadlockError if
// live threads remain blocked with no pending events, and nil otherwise.
// If a thread body panics, Run panics with a *ThreadPanic. However Run
// ends, threads that have not finished by then are unwound first.
//
// Scheduling points: every thread switch passes through this loop, and
// the sched hooks run before each resume or event dispatch.
func (k *Kernel) Run() error {
	defer k.reap()
	k.running = true
	for !k.stopped {
		k.runHooks()
		if len(k.runq) > 0 {
			t := k.runq[0]
			copy(k.runq, k.runq[1:])
			k.runq = k.runq[:len(k.runq)-1]
			k.current = t
			t.state = StateRunning
			// Returns when the thread blocks, yields or ends; re-raises
			// the ThreadPanic of a body that panicked.
			t.next()
			k.current = nil
			continue
		}
		if k.events.len() > 0 {
			if at := k.events.earliest(); k.pacer != nil && at > k.now && k.pacer.Advance(at) {
				continue // the pacer may have made a thread runnable
			}
			e := k.events.pop()
			k.now = e.at
			k.dispatch(e)
			continue
		}
		if k.live > 0 {
			if k.pacer != nil && k.pacer.Advance(PacerIdle) {
				continue
			}
			var blocked []string
			for _, t := range k.threads {
				if t.state == StateBlocked {
					blocked = append(blocked, fmt.Sprintf("%s(%d): %s", t.name, t.id, t.BlockReason()))
				}
			}
			sort.Strings(blocked)
			return &DeadlockError{Now: k.now, Blocked: blocked}
		}
		return nil
	}
	return nil
}

func (k *Kernel) runHooks() {
	for _, h := range k.schedHooks {
		h.fn()
	}
}

// dispatch runs one expired event by opcode and recycles it. Operands
// are copied out before release so a callback can immediately reuse the
// pooled struct.
func (k *Kernel) dispatch(e *event) {
	switch e.op {
	case opWake:
		t := e.th
		k.release(e)
		k.unpark(t)
	case opFunc:
		fn := e.fn
		k.release(e)
		fn()
	case opComplete:
		c, tag := e.c, e.tag
		k.release(e)
		c.Complete(tag)
	case opTimer:
		tm := e.tm
		if tm.ev != e {
			// Stopped or re-armed since this expiry was scheduled.
			k.release(e)
			return
		}
		tm.ev = nil
		k.release(e)
		tm.fn()
	default:
		panic(fmt.Sprintf("sim: unknown event opcode %d", e.op))
	}
}

// switchOut gives the CPU back to Run and returns when Run next resumes
// the thread. A false from yield means the thread will never be resumed
// (see reap): the body is unwound, and a deferred call that blocks on
// the way out lands here again and is unwound in turn.
func (t *Thread) switchOut() {
	if !t.yield(struct{}{}) {
		panic(errKilled)
	}
}

// block parks the calling thread with a reason and hands control to the
// kernel; it returns when the thread is next resumed.
func (t *Thread) block(reason string) {
	if t.k.current != t {
		panic(fmt.Sprintf("sim: thread %q blocking while not current", t.name))
	}
	t.state = StateBlocked
	t.blockReason = reason
	t.switchOut()
	t.blockReason = ""
}

// blockf is block with a lazily-rendered reason: reasonf runs only if a
// deadlock report (or BlockReason) actually needs the description.
func (t *Thread) blockf(reasonf func() string) {
	if t.k.current != t {
		panic(fmt.Sprintf("sim: thread %q blocking while not current", t.name))
	}
	t.state = StateBlocked
	t.blockReasonf = reasonf
	t.switchOut()
	t.blockReasonf = nil
}

// unpark moves a blocked thread to the back of the run queue. It is a
// no-op for threads that are not blocked.
func (k *Kernel) unpark(t *Thread) {
	if t.state != StateBlocked {
		return
	}
	t.state = StateRunnable
	k.runq = append(k.runq, t)
}

// Yield moves the calling thread to the back of the run queue, letting
// other runnable threads (but not the clock) make progress first.
func (t *Thread) Yield() {
	t.state = StateRunnable
	t.k.runq = append(t.k.runq, t)
	t.switchOut()
}

// Sleep blocks the calling thread for d of virtual time. Negative or zero
// durations yield without advancing the clock.
func (t *Thread) Sleep(d time.Duration) {
	if d <= 0 {
		t.Yield()
		return
	}
	k := t.k
	wake := k.after(d)
	k.sleeps++
	if k.sleepInPlace(t, wake) {
		return
	}
	// The wake is a tagged pooled event (opWake), not a closure: the
	// hottest event in the simulator allocates nothing.
	e := k.newEvent(wake)
	e.op = opWake
	e.th = t
	k.events.push(e)
	// A sleeping thread always has a pending wake event, so its reason
	// can never appear in a deadlock report; a constant avoids a
	// fmt.Sprintf on every simulated sleep.
	t.block("sleeping")
}

// sleepInPlace moves the clock to wake on t's own stack when the trip
// through Run could resume nothing but t: Run is live and not stopped, t
// is current, the run queue is empty, no Pacer has to be asked, and wake
// is strictly before every pending event (one due at wake itself has a
// smaller seq and goes first). It then does what Run would have, in Run's
// order: switching is still the same with and without sched hooks, which
// see both scheduling points as Run shows them.
func (k *Kernel) sleepInPlace(t *Thread, wake time.Duration) bool {
	if !k.running || k.stopped || k.current != t || len(k.runq) > 0 ||
		k.pacer != nil || wake >= k.events.earliest() {
		return false
	}
	k.inPlace++
	k.eseq++ // the wake event's sequence number
	t.state, t.blockReason, k.current = StateBlocked, "sleeping", nil
	k.runHooks()
	k.now = wake
	t.state = StateRunnable
	k.runq = append(k.runq, t)
	if k.stopped {
		t.switchOut() // a hook stopped the kernel: Run ends with t runnable
	}
	k.runHooks()
	k.runq = k.runq[:copy(k.runq, k.runq[1:])]
	t.state, t.blockReason, k.current = StateRunning, "", t
	return true
}

// Park blocks the calling thread until another thread or event calls
// Unpark on it. The reason string appears in deadlock reports.
func (t *Thread) Park(reason string) {
	t.block(reason)
}

// ParkFn is Park with a lazily-rendered reason: reasonf runs only if a
// deadlock report (or BlockReason) actually needs the description, so
// hot paths can park without formatting a string.
func (t *Thread) ParkFn(reasonf func() string) {
	t.blockf(reasonf)
}

// Unpark makes a parked thread runnable. Calling it on a thread that is
// not blocked is a no-op.
func (k *Kernel) Unpark(t *Thread) { k.unpark(t) }

// Cond is a condition variable for simulated threads. Unlike sync.Cond it
// needs no external mutex: the simulation is single-threaded, so checking
// a predicate and calling Wait is atomic with respect to other sim
// threads.
type Cond struct {
	k       *Kernel
	waiters []*Thread
}

// NewCond returns a condition variable bound to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks t until Signal or Broadcast. As with sync.Cond, callers
// should re-check their predicate in a loop.
func (c *Cond) Wait(t *Thread, reason string) {
	c.waiters = append(c.waiters, t)
	t.block(reason)
}

// WaitFn is Wait with a lazily-rendered reason: reasonf runs only if a
// deadlock report needs the description, so satisfied-fast wait loops
// allocate nothing for it.
func (c *Cond) WaitFn(t *Thread, reasonf func() string) {
	c.waiters = append(c.waiters, t)
	t.blockf(reasonf)
}

// Signal wakes the longest-waiting thread, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	t := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.k.unpark(t)
}

// Broadcast wakes all waiting threads in wait order.
func (c *Cond) Broadcast() {
	for _, t := range c.waiters {
		c.k.unpark(t)
	}
	c.waiters = c.waiters[:0]
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but for
// simulated threads.
type WaitGroup struct {
	k    *Kernel
	n    int
	cond *Cond
}

// NewWaitGroup returns a WaitGroup bound to k.
func NewWaitGroup(k *Kernel) *WaitGroup {
	return &WaitGroup{k: k, cond: NewCond(k)}
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks t until the counter reaches zero.
func (w *WaitGroup) Wait(t *Thread) {
	for w.n > 0 {
		w.cond.WaitFn(t, func() string { return fmt.Sprintf("waitgroup (%d remaining)", w.n) })
	}
}

// Chan is a bounded FIFO channel between simulated threads. A capacity of
// zero makes sends rendezvous with receives.
type Chan[T any] struct {
	k        *Kernel
	cap      int
	buf      []T
	closed   bool
	sendCond *Cond
	recvCond *Cond
}

// NewChan returns a channel with the given buffer capacity.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	return &Chan[T]{k: k, cap: capacity, sendCond: NewCond(k), recvCond: NewCond(k)}
}

// Send enqueues v, blocking while the buffer is full. Sending on a closed
// channel panics.
func (c *Chan[T]) Send(t *Thread, v T) {
	for !c.closed && c.cap > 0 && len(c.buf) >= c.cap {
		c.sendCond.Wait(t, "chan send (full)")
	}
	if c.closed {
		panic("sim: send on closed Chan")
	}
	c.buf = append(c.buf, v)
	c.recvCond.Signal()
	if c.cap == 0 {
		// Rendezvous: wait until a receiver takes the value.
		for len(c.buf) > 0 && !c.closed {
			c.sendCond.Wait(t, "chan send (rendezvous)")
		}
	}
}

// Recv dequeues a value, blocking while the channel is empty. The second
// result is false if the channel is closed and drained.
func (c *Chan[T]) Recv(t *Thread) (T, bool) {
	for len(c.buf) == 0 && !c.closed {
		c.recvCond.Wait(t, "chan recv (empty)")
	}
	if len(c.buf) == 0 {
		var zero T
		return zero, false
	}
	v := c.buf[0]
	copy(c.buf, c.buf[1:])
	c.buf = c.buf[:len(c.buf)-1]
	c.sendCond.Signal()
	return v, true
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Close marks the channel closed, waking all waiters.
func (c *Chan[T]) Close() {
	c.closed = true
	c.sendCond.Broadcast()
	c.recvCond.Broadcast()
}
