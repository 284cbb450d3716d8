package artc

import (
	"slices"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/stack"
)

// hotTables is what the per-record path of a replay indexes instead of
// looking up. Everything a record needs that can be decided before
// replay starts is decided here, once per benchmark: which call it is,
// which thread it runs on, and which slots of the descriptor/AIOCB remap
// table it reads and writes. The replay loop then touches slices only.
//
// Three small spaces are interned. A call slot numbers the distinct
// traced call names (reports key on the traced name, dispatch on the
// slot's opcode). A thread slot numbers the traced thread ids in
// ascending order, the order replay threads are spawned in. A resource
// slot numbers the resources descriptors and AIOCBs are remapped
// through: it is the resource's index in Analysis.Resources
// (core.Touch.Idx, which the binary codec stores), and a shard renumbers
// the slots its actions use from zero so its table is as small as its
// share of the trace.
type hotTables struct {
	acts  []hotAction
	calls []hotCall
	tids  []int
	// predelay is, per action, the traced gap between its start and the
	// completion of the previous action on its thread (§4.3.3).
	predelay []time.Duration
	// nSlots is the size of the resource-slot space.
	nSlots int
}

// hotCall is one distinct traced call name.
type hotCall struct {
	name string
	op   stack.Op
}

// hotAction is one action's precomputed plan; resource slots are -1
// where the action has none.
type hotAction struct {
	// fdUse is the descriptor the call operates on (for a failed call,
	// the then-valid descriptor Action.FDHint names, so it fails the way
	// it did when traced); fdCreate the one it creates on success;
	// fdDelete the generation a dup2 implicitly closes. aioUse/aioCreate
	// likewise for AIO control blocks.
	fdUse, fdCreate, fdDelete int32
	aioUse, aioCreate         int32
	thread, call              int32
}

// hot returns the benchmark's tables, building them on first use. Safe
// for concurrent use; the result is immutable.
func (b *Benchmark) hot() *hotTables {
	b.hotOnce.Do(func() {
		if b.hotTab == nil {
			b.hotTab = buildHot(b)
		}
	})
	return b.hotTab
}

func buildHot(b *Benchmark) *hotTables {
	tr := b.Trace
	recs := tr.Records
	h := &hotTables{
		acts:     make([]hotAction, len(recs)),
		predelay: make([]time.Duration, len(recs)),
	}

	// Calls and threads. A call slot is found by the record's Str
	// (callSlot holds slot+1, 0 for a name not seen yet); threads are
	// numbered in first-appearance order here and renumbered ascending
	// below.
	callSlot := make([]int32, max(len(tr.Strs), 1))
	tidSlot := make(map[int32]int32)
	for i := range recs {
		rec := &recs[i]
		cs := callSlot[rec.Call] - 1
		if cs < 0 {
			cs = int32(len(h.calls))
			callSlot[rec.Call] = cs + 1
			name := tr.Str(rec.Call)
			h.calls = append(h.calls, hotCall{name: name, op: stack.OpOf(name)})
		}
		ts, ok := tidSlot[rec.TID]
		if !ok {
			ts = int32(len(h.tids))
			tidSlot[rec.TID] = ts
			h.tids = append(h.tids, int(rec.TID))
		}
		h.acts[i] = hotAction{fdUse: -1, fdCreate: -1, fdDelete: -1, aioUse: -1, aioCreate: -1, thread: ts, call: cs}
	}
	sorted := slices.Clone(h.tids)
	slices.Sort(sorted)
	for i, tid := range sorted {
		tidSlot[int32(tid)] = int32(i)
	}
	lastEnd := make([]time.Duration, len(sorted))
	for i := range recs {
		rec := &recs[i]
		ha := &h.acts[i]
		ha.thread = tidSlot[int32(h.tids[ha.thread])]
		h.predelay[i] = max(rec.Start-lastEnd[ha.thread], 0)
		lastEnd[ha.thread] = rec.End
	}
	h.tids = sorted

	an := b.Analysis
	if an == nil {
		return h
	}
	// Resource slots are resource indices, as touches and hints hold them.
	h.nSlots = len(an.Resources)
	for i := range an.Actions {
		touches := an.Touches(i)
		ha := &h.acts[i]
		var plan actionTouches
		if b.touches != nil {
			plan = b.touches[i]
		} else {
			plan = planOne(an, i)
		}
		slot := func(ti int16) int32 {
			if ti < 0 {
				return -1
			}
			return touches[ti].Idx
		}
		ha.fdUse, ha.fdCreate = slot(plan.fdUse), slot(plan.fdCreate)
		ha.aioUse, ha.aioCreate = slot(plan.aioUse), slot(plan.aioCreate)
		if ha.fdUse < 0 {
			ha.fdUse = an.Actions[i].FDHint
		}
		if h.calls[ha.call].op == stack.OpDup2 {
			for _, tc := range touches {
				if tc.Kind == core.KFD && tc.Role == core.RoleDelete {
					ha.fdDelete = tc.Idx
				}
			}
		}
	}
	return h
}

// forShard derives a shard's tables: the member actions' plans, with the
// resource slots they use renumbered from zero. scratch maps full slots
// to shard slots; it is all -1 on entry and on return.
func (h *hotTables) forShard(members []int32, scratch []int32) *hotTables {
	sub := &hotTables{
		acts:     make([]hotAction, len(members)),
		calls:    h.calls,
		tids:     h.tids,
		predelay: make([]time.Duration, len(members)),
	}
	var used []int32
	local := func(slot int32) int32 {
		if slot < 0 {
			return -1
		}
		if scratch[slot] < 0 {
			scratch[slot] = int32(len(used))
			used = append(used, slot)
		}
		return scratch[slot]
	}
	for li, gidx := range members {
		ha := h.acts[gidx]
		ha.fdUse, ha.fdCreate, ha.fdDelete = local(ha.fdUse), local(ha.fdCreate), local(ha.fdDelete)
		ha.aioUse, ha.aioCreate = local(ha.aioUse), local(ha.aioCreate)
		sub.acts[li] = ha
		// A sliced thread's actions live on several shards, so the gaps
		// are the full trace's, never recomputed over the sub-trace.
		sub.predelay[li] = h.predelay[gidx]
	}
	sub.nSlots = len(used)
	for _, slot := range used {
		scratch[slot] = -1
	}
	return sub
}

// totals are a replay's per-call and per-thread accumulators, indexed by
// call and thread slot; render turns them into the Report's maps.
type totals struct {
	callTime   []time.Duration
	callCount  []int64
	threadTime []time.Duration
	threadActs []int64
}

func newTotals(h *hotTables) totals {
	return totals{
		callTime:   make([]time.Duration, len(h.calls)),
		callCount:  make([]int64, len(h.calls)),
		threadTime: make([]time.Duration, len(h.tids)),
		threadActs: make([]int64, len(h.tids)),
	}
}

// add folds o into t.
func (t *totals) add(o *totals) {
	for i := range t.callTime {
		t.callTime[i] += o.callTime[i]
		t.callCount[i] += o.callCount[i]
	}
	for i := range t.threadTime {
		t.threadTime[i] += o.threadTime[i]
		t.threadActs[i] += o.threadActs[i]
	}
}

// render fills rep's per-call and per-thread maps: an entry for every
// call and thread that completed an action, as accumulating straight
// into the maps gave.
func (t *totals) render(h *hotTables, rep *Report) {
	rep.CallTime = make(map[string]time.Duration, len(h.calls))
	rep.CallCount = make(map[string]int64, len(h.calls))
	rep.PerThread = make(map[int]time.Duration, len(h.tids))
	for i, c := range h.calls {
		if t.callCount[i] > 0 {
			rep.CallTime[c.name] = t.callTime[i]
			rep.CallCount[c.name] = t.callCount[i]
		}
	}
	for i, tid := range h.tids {
		if t.threadActs[i] > 0 {
			rep.PerThread[tid] = t.threadTime[i]
		}
	}
}
