package artc_test

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/fault"
	"rootreplay/internal/obs"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// The reference replayer. Production code no longer runs it; the
// differential test in tables_test.go compares Replay and ReplaySharded
// against it.
//
// oracleReplay is the serial ARTC replay loop as it stood before the hot
// path moved onto dense tables, reduced to what that move replaced: every
// record hashes its way through map[core.ResourceID] descriptor and AIOCB
// remaps (FDHint and dup2's implicit close included), accumulates its
// report in maps keyed by call name and thread id, copies the record to
// rewrite it, and dispatches on the canonical call name looked up per
// record. It spawns, waits, retries, compares and records spans the way
// Replay does, so reports, stack statistics and span exports must come
// out equal. It has no watchdog and no sharding.
type oracleState struct {
	sys  *stack.System
	b    *artc.Benchmark
	opts artc.Options
	g    *core.Graph
	inj  *fault.Injector

	remaining        []int32
	issueAt, doneAt  []time.Duration
	waiting          []*sim.Thread
	releasedEdge     []int32
	releasedAt       []time.Duration
	fdMap, aioMap    map[core.ResourceID]int64
	predelay         []time.Duration
	start            time.Duration
	maxSamples       int
	rep              *artc.Report
	callTime         map[string]time.Duration
	callCount        map[string]int64
	perThread        map[int]time.Duration
	errors, emulated int
}

func oracleReplay(sys *stack.System, b *artc.Benchmark, opts artc.Options) (*artc.Report, error) {
	g := b.Graph
	n := len(b.Trace.Records)
	o := &oracleState{
		sys: sys, b: b, opts: opts, g: g, inj: opts.Fault,
		remaining:    make([]int32, n),
		issueAt:      make([]time.Duration, n),
		doneAt:       make([]time.Duration, n),
		waiting:      make([]*sim.Thread, n),
		releasedEdge: make([]int32, n),
		releasedAt:   make([]time.Duration, n),
		fdMap:        make(map[core.ResourceID]int64),
		aioMap:       make(map[core.ResourceID]int64),
		start:        sys.K.Now(),
		maxSamples:   10,
		rep:          &artc.Report{Method: artc.MethodARTC, Actions: n},
		callTime:     make(map[string]time.Duration),
		callCount:    make(map[string]int64),
		perThread:    make(map[int]time.Duration),
	}
	for i := range o.remaining {
		o.remaining[i] = int32(g.Indegree(i))
		o.releasedEdge[i] = -1
	}
	// Predelay: the traced gap to the previous action on the same thread.
	o.predelay = make([]time.Duration, n)
	lastEnd := make(map[int32]time.Duration)
	for i, rec := range b.Trace.Records {
		o.predelay[i] = max(rec.Start-lastEnd[rec.TID], 0)
		lastEnd[rec.TID] = rec.End
	}
	// One replay thread per traced thread, in TID order.
	byThread := make(map[int][]int)
	var order []int
	for i, rec := range b.Trace.Records {
		tid := int(rec.TID)
		if _, ok := byThread[tid]; !ok {
			order = append(order, tid)
		}
		byThread[tid] = append(byThread[tid], i)
	}
	sort.Ints(order)
	for _, tid := range order {
		actions := byThread[tid]
		sys.K.Spawn(fmt.Sprintf("replay-T%d", tid), func(t *sim.Thread) {
			for _, idx := range actions {
				o.playAction(t, idx)
			}
		})
	}
	if err := sys.K.Run(); err != nil {
		return nil, err
	}
	rep := o.rep
	for _, d := range o.doneAt {
		rep.Elapsed = max(rep.Elapsed, d)
	}
	rep.Errors, rep.Emulated = o.errors, o.emulated
	rep.IssueAt, rep.DoneAt = o.issueAt, o.doneAt
	rep.CallTime, rep.CallCount, rep.PerThread = o.callTime, o.callCount, o.perThread
	rep.Graph = g.Stats(b.Analysis)
	if o.inj != nil {
		st := o.inj.Stats()
		rep.FaultStats = &st
	}
	return rep, nil
}

func (o *oracleState) depSatisfied(ei int32) {
	to := o.g.Edges[ei].To
	o.remaining[to]--
	if o.remaining[to] == 0 {
		o.releasedEdge[to] = ei
		o.releasedAt[to] = o.sys.K.Now() - o.start
		if w := o.waiting[to]; w != nil {
			o.sys.K.Unpark(w)
		}
	}
}

func (o *oracleState) playAction(t *sim.Thread, idx int) {
	waitStart := o.sys.K.Now() - o.start
	if o.remaining[idx] > 0 {
		o.waiting[idx] = t
		for o.remaining[idx] > 0 {
			t.ParkFn(func() string { return "oracle: waiting on dependencies" })
		}
		o.waiting[idx] = nil
	}
	var slept time.Duration
	switch o.opts.Speed {
	case artc.Natural:
		slept = o.predelay[idx]
		t.Sleep(slept)
	case artc.Scaled:
		slept = time.Duration(float64(o.predelay[idx]) * o.opts.Scale)
		t.Sleep(slept)
	}
	now := o.sys.K.Now()
	o.issueAt[idx] = now - o.start
	for _, ei := range o.g.Succs(idx) {
		if o.g.Edges[ei].Kind == core.WaitIssue {
			o.depSatisfied(ei)
		}
	}

	rec := artc.Resolve(o.b.Trace, idx)
	_, errno, emulated, injected := o.execute(t, idx, 0)
	if o.inj != nil && injected && errno != vfs.OK && rec.OK() {
		for attempt := 1; attempt < o.inj.RetryAttempts(); attempt++ {
			o.inj.CountRetry()
			t.Sleep(o.inj.Backoff(attempt))
			_, errno, emulated, injected = o.execute(t, idx, attempt)
			if errno == vfs.OK || !injected {
				break
			}
		}
		if errno == vfs.OK {
			o.inj.CountRecovered()
		}
	}

	end := o.sys.K.Now()
	o.doneAt[idx] = end - o.start
	for _, ei := range o.g.Succs(idx) {
		if o.g.Edges[ei].Kind == core.WaitComplete {
			o.depSatisfied(ei)
		}
	}
	d := end - now
	o.callTime[rec.Call] += d
	o.callCount[rec.Call]++
	o.rep.ThreadTime += d
	o.perThread[int(rec.TID)] += d
	if emulated {
		o.emulated++
	}
	if o.opts.Obs != nil {
		sp := obs.Span{
			Action: int32(idx), TID: rec.TID, Call: rec.Call,
			WaitStart: waitStart, Issue: o.issueAt[idx], Done: o.doneAt[idx],
			Predelay: slept, ReleasedBy: -1,
		}
		if re := o.releasedEdge[idx]; re >= 0 {
			e := &o.g.Edges[re]
			sp.ReleasedBy = int32(e.From)
			sp.ReleasedAt = o.releasedAt[idx]
			if e.Res != (core.ResourceID{}) {
				sp.ReleaseRes = e.Res.String()
			}
		}
		o.opts.Obs.Record(sp)
	}
	if o.compare(idx, &rec, errno) && o.inj != nil && injected {
		o.inj.CountSkipped()
	}
}

func (o *oracleState) compare(idx int, rec *artc.ResolvedRecord, errno vfs.Errno) bool {
	tracedOK, replayOK := rec.OK(), errno == vfs.OK
	mismatch := ""
	switch {
	case tracedOK && !replayOK:
		mismatch = fmt.Sprintf("traced success, replay failed with %v", errno)
	case !tracedOK && replayOK:
		mismatch = fmt.Sprintf("traced %s, replay succeeded", rec.Err)
	case !tracedOK && !replayOK && errno.String() != rec.Err:
		mismatch = fmt.Sprintf("traced %s, replay %v", rec.Err, errno)
	}
	if mismatch == "" {
		return false
	}
	o.errors++
	if len(o.rep.ErrorSamples) < o.maxSamples {
		o.rep.ErrorSamples = append(o.rep.ErrorSamples,
			fmt.Sprintf("action %d [T%d] %s(%s): %s", idx, rec.TID, rec.Call, rec.Path, mismatch))
	}
	return true
}

// fdTouch finds the fd resource an action references with the given
// number and role class.
func (o *oracleState) fdTouch(touches []core.Touch, num int64, create bool) *core.ResourceID {
	name := strconv.FormatInt(num, 10)
	for _, tc := range touches {
		res := &o.b.Analysis.Resources[tc.Idx]
		if res.Kind == core.KFD && res.Name == name && create == (tc.Role == core.RoleCreate) {
			return res
		}
	}
	return nil
}

func (o *oracleState) aioTouch(touches []core.Touch, create bool) *core.ResourceID {
	for _, tc := range touches {
		if res := &o.b.Analysis.Resources[tc.Idx]; res.Kind == core.KAIO && create == (tc.Role == core.RoleCreate) {
			return res
		}
	}
	return nil
}

func (o *oracleState) execute(t *sim.Thread, idx, attempt int) (int64, vfs.Errno, bool, bool) {
	an := o.b.Analysis
	act, touches, traced := &an.Actions[idx], an.Touches(idx), artc.Resolve(o.b.Trace, idx)
	if o.inj != nil {
		if e, ok := o.inj.SyscallFault(idx, attempt, traced.Call, traced.Path); ok {
			return -1, e, false, true
		}
	}
	rec := traced // copy to rewrite
	call := stack.Canonical(rec.Call)
	if act.CanonPath >= 0 {
		rec.Path = o.prefixPath(an.Paths[act.CanonPath], call == "symlink")
	}
	if act.CanonPath2 >= 0 {
		rec.Path2 = o.prefixPath(an.Paths[act.CanonPath2], false)
	}
	if use := o.fdTouch(touches, rec.FD, false); use != nil {
		if actual, ok := o.fdMap[*use]; ok {
			rec.FD = actual
		}
	} else if act.FDHint >= 0 {
		if actual, ok := o.fdMap[an.Resources[act.FDHint]]; ok {
			rec.FD = actual
		}
	}
	if use := o.aioTouch(touches, false); use != nil {
		if actual, ok := o.aioMap[*use]; ok {
			rec.AIO = actual
		}
	}

	ret, errno, emulated := o.applyWithEmulation(t, touches, call, &rec)

	if errno == vfs.OK {
		created := int64(-1)
		switch call {
		case "open", "creat", "dup":
			created = traced.Ret
		case "dup2":
			created = traced.FD2
		case "fcntl":
			if traced.Name == "F_DUPFD" {
				created = traced.Ret
			}
		}
		if created >= 0 {
			if res := o.fdTouch(touches, created, true); res != nil {
				o.fdMap[*res] = ret
			}
		}
		if call == "aio_read" || call == "aio_write" {
			if res := o.aioTouch(touches, true); res != nil {
				o.aioMap[*res] = ret
			}
		}
	}
	return ret, errno, emulated, false
}

func (o *oracleState) prefixPath(p string, symlinkTarget bool) string {
	if o.opts.Prefix == "" || (symlinkTarget && len(p) > 0 && p[0] != '/') {
		return p
	}
	return o.opts.Prefix + p
}

// apply hands the rewritten record to the stack by canonical name.
func (o *oracleState) apply(t *sim.Thread, call string, rec *artc.ResolvedRecord) (int64, vfs.Errno) {
	return o.sys.Apply(t, stack.OpOf(call), &rec.Record,
		&stack.Redirect{Path: rec.Path, Path2: rec.Path2, Name: rec.Name, FD: rec.FD, AIO: rec.AIO})
}

func (o *oracleState) applyWithEmulation(t *sim.Thread, touches []core.Touch, call string, rec *artc.ResolvedRecord) (int64, vfs.Errno, bool) {
	sys := o.sys
	target := sys.Conf.Platform
	if call == "dup2" {
		for _, tc := range touches {
			if res := o.b.Analysis.Resources[tc.Idx]; res.Kind == core.KFD && tc.Role == core.RoleDelete {
				if actual, ok := o.fdMap[res]; ok {
					sys.Close(t, actual)
				}
			}
		}
		ret, err := sys.Dup(t, rec.FD)
		return ret, err, false
	}
	if call == "fsync" && target == stack.OSX && o.b.Platform != string(stack.OSX) && o.opts.FullFsyncOnOSX {
		ret, err := sys.Fcntl(t, rec.FD, "F_FULLFSYNC", 0)
		return ret, err, true
	}
	if stack.Native(target, stack.OpOf(call)) {
		ret, err := o.apply(t, call, rec)
		return ret, err, false
	}
	statThen := func(path string, ret int64, errno vfs.Errno) (int64, vfs.Errno, bool) {
		if _, err := sys.Stat(t, path); err != vfs.OK {
			return -1, err, true
		}
		return ret, errno, true
	}
	fstatThen := func(ret int64, errno vfs.Errno) (int64, vfs.Errno, bool) {
		if _, err := sys.Fstat(t, rec.FD); err != vfs.OK {
			return -1, err, true
		}
		return ret, errno, true
	}
	switch call {
	case "exchangedata":
		tmp := rec.Path + ".xchg"
		if _, err := sys.Link(t, rec.Path, tmp); err != vfs.OK {
			return -1, err, true
		}
		if _, err := sys.Rename(t, rec.Path2, rec.Path); err != vfs.OK {
			sys.Unlink(t, tmp)
			return -1, err, true
		}
		if _, err := sys.Rename(t, tmp, rec.Path2); err != vfs.OK {
			return -1, err, true
		}
		return 0, vfs.OK, true
	case "getattrlist", "fsctl", "vfsconf":
		return statThen(rec.Path, 0, vfs.OK)
	case "setattrlist":
		ret, err := sys.Utimes(t, rec.Path)
		return ret, err, true
	case "searchfs":
		fd, err := sys.Open(t, rec.Path, trace.ORdonly|trace.ODir, 0)
		if err != vfs.OK {
			return statThen(rec.Path, 0, vfs.OK)
		}
		for {
			n, derr := sys.Getdents(t, fd, 128)
			if derr != vfs.OK || n == 0 {
				break
			}
		}
		sys.Close(t, fd)
		return 0, vfs.OK, true
	case "getdirentriesattr":
		ret, err := sys.Getdents(t, rec.FD, rec.Size)
		return ret, err, true
	case "fallocate":
		if target == stack.OSX {
			ret, err := sys.Fcntl(t, rec.FD, "F_PREALLOCATE", rec.Offset+rec.Size)
			return ret, err, true
		}
		ret, err := sys.Ftruncate(t, rec.FD, rec.Offset+rec.Size)
		return ret, err, true
	case "fadvise":
		if target == stack.OSX {
			if rec.Name == "POSIX_FADV_WILLNEED" {
				ret, err := sys.Fcntl(t, rec.FD, "F_RDADVISE", rec.Size)
				return ret, err, true
			}
			return fstatThen(0, vfs.OK)
		}
		return 0, vfs.OK, true
	case "getxattr", "lgetxattr", "listxattr", "llistxattr":
		return statThen(rec.Path, -1, vfs.ENODATA)
	case "setxattr", "lsetxattr", "removexattr", "lremovexattr":
		return statThen(rec.Path, 0, vfs.OK)
	case "fgetxattr", "flistxattr":
		return fstatThen(-1, vfs.ENODATA)
	case "fsetxattr", "fremovexattr":
		return fstatThen(0, vfs.OK)
	default:
		ret, err := o.apply(t, call, rec)
		return ret, err, true
	}
}
