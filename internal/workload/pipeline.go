package workload

import (
	"fmt"
	"math/rand"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// Pipeline parameterizes the resource-cut slicing family: S stage
// threads chained into one weakly-connected component by shared handoff
// files, the shape PR 6's component partitioner cannot split (every
// thread is transitively connected to every other through the handoff
// chain) but resource-cut slicing can.
//
// Stage s works mostly against its private directory /ppriv<s>/ and,
// every Handoff ops, touches the boundary files: it writes a page of
// /phand<s>/h (consumed by stage s+1) and reads back a page of
// /phand<s-1>/h that stage s-1 wrote a full handoff round earlier. The
// resource atoms are therefore a path graph priv0 — hand0 — priv1 —
// hand1 — ... and the minimum K-way cut severs only thread adjacencies:
// all cross-slice edges are synthetic program-order edges, about
// 2*(S-1)*Ops/Handoff of them, tunable via -handoff.
//
// Every pread targets a page pwritten earlier in the trace, and the
// boundary write/read pairs sit a whole handoff round apart, so with
// warmed caches (stack.System.WarmAll) and the default Fsync=0 replay
// is cache-hit-only on every replica: no foreground device I/O, which
// is what makes the sliced replay's virtual times — and so its merged
// report — byte-identical to the serial replayer's. A positive Fsync
// forfeits that device independence and turns the family into the
// writeback perf corpus instead (see the Fsync field).
type Pipeline struct {
	// Stages is the number of pipeline stages, one traced thread each
	// (default 8).
	Stages int
	// Ops is the operation count per stage; each op expands to a 3-record
	// open/IO/close session (default 1000).
	Ops int
	// Handoff is the op interval between boundary-file exchanges
	// (default 16).
	Handoff int
	// FileBytes is each file's size (default 256 KiB).
	FileBytes int64
	// Fsync, when positive, makes every Fsync-th private write session
	// fsync before closing. The default 0 keeps the family fsync-free —
	// the device-independent shape whose sliced replay is byte-identical
	// to serial. A positive value turns the family into the writeback
	// perf corpus, whose fsyncs reach the device queue (slicing it
	// requires ShardOptions.SliceDeviceSync). An fsync's host cost is
	// its own dirty pages whatever else is resident, so the corpus
	// measures what slicing itself costs, not a working-set reduction.
	Fsync int
	// Seed drives the per-stage op mix.
	Seed int64
}

func (p *Pipeline) withDefaults() Pipeline {
	out := *p
	if out.Stages <= 0 {
		out.Stages = 8
	}
	if out.Ops <= 0 {
		out.Ops = 1000
	}
	if out.Handoff <= 0 {
		out.Handoff = 16
	}
	if out.FileBytes <= 0 {
		out.FileBytes = 256 << 10
	}
	return out
}

// pipelineOpSlot is each op's fixed time slot: room for a boundary op's
// six records at the recorder's 3µs gap, with margin.
const pipelineOpSlot = 24 * time.Microsecond

// SynthPipeline generates the family's trace and matching snapshot.
func SynthPipeline(params Pipeline) (*trace.Trace, *snapshot.Snapshot, error) {
	p := params.withDefaults()
	s := p.Stages

	// Instant setup pass so the snapshot restores exactly the tree the
	// records assume: two private files per stage plus one handoff file
	// per stage boundary, each in its own top-level directory so the
	// atoms stay disjoint.
	k := sim.NewKernel()
	sys := stack.New(k, stack.Config{
		Name: "pipeline", Platform: stack.Linux, Profile: stack.Ext4,
		Device: stack.DeviceSSD, Scheduler: stack.SchedNoop,
	})
	priv := make([][2]string, s)
	for st := 0; st < s; st++ {
		for f := 0; f < 2; f++ {
			priv[st][f] = fmt.Sprintf("/ppriv%03d/f%d", st, f)
			if err := sys.SetupCreate(priv[st][f], p.FileBytes); err != nil {
				return nil, nil, err
			}
		}
	}
	hand := make([]string, s-1)
	for b := 0; b < s-1; b++ {
		hand[b] = fmt.Sprintf("/phand%03d/h", b)
		if err := sys.SetupCreate(hand[b], p.FileBytes); err != nil {
			return nil, nil, err
		}
	}
	snap := snapshot.Capture(sys)

	blocks := p.FileBytes / 4096
	if blocks < 1 {
		blocks = 1
	}
	tr := &trace.Trace{Platform: string(stack.Linux)}
	str := tr.Intern
	for st := 0; st < s; st++ {
		g := &compRecorder{tr: tr, tid: int32(st + 1)}
		// Three distinct fd numbers per stage — private files, handoff
		// writes, handoff reads. Traced fds are process-global, so
		// reusing a number across stages would merge unrelated atoms
		// through the fd series.
		fdPriv := int64(3 + 3*st)
		fdHandW := int64(4 + 3*st)
		fdHandR := int64(5 + 3*st)
		rng := rand.New(rand.NewSource(p.Seed*1e9 + int64(st)))
		written := int64(0) // private pages written so far (prefix 0..written-1)
		for i := 0; i < p.Ops; i++ {
			// Pin every op to a fixed time slot wide enough for its
			// records: stages emit different record counts per op (a
			// boundary op is up to two sessions), and free-running
			// per-record clocks would drift apart until a handoff read
			// precedes its producing write in merged trace order.
			g.now = time.Duration(i) * pipelineOpSlot
			if i%p.Handoff == 0 {
				round := int64(i / p.Handoff)
				if st > 0 && round > 0 {
					// Consume what the upstream stage produced last
					// round: a strictly earlier trace instant, so the
					// page is in this slice's cache by issue time.
					g.emit(trace.Record{Call: str("open"), Path: str(hand[st-1]), Flags: trace.ORdonly, FD: fdHandR, Ret: fdHandR})
					g.emit(trace.Record{Call: str("pread"), FD: fdHandR, Offset: ((round - 1) % blocks) * 4096, Size: 4096, Ret: 4096})
					g.emit(trace.Record{Call: str("close"), FD: fdHandR, Ret: 0})
				}
				if st < s-1 {
					g.emit(trace.Record{Call: str("open"), Path: str(hand[st]), Flags: trace.ORdwr, FD: fdHandW, Ret: fdHandW})
					g.emit(trace.Record{Call: str("pwrite"), FD: fdHandW, Offset: (round % blocks) * 4096, Size: 4096, Ret: 4096})
					g.emit(trace.Record{Call: str("close"), FD: fdHandW, Ret: 0})
				}
				continue
			}
			f := priv[st][rng.Intn(2)]
			if written == 0 || rng.Intn(3) != 0 { // 2:1 write:read mix
				off := (written % blocks) * 4096
				written++
				g.emit(trace.Record{Call: str("open"), Path: str(f), Flags: trace.ORdwr, FD: fdPriv, Ret: fdPriv})
				g.emit(trace.Record{Call: str("pwrite"), FD: fdPriv, Offset: off, Size: 4096, Ret: 4096})
				if p.Fsync > 0 && written%int64(p.Fsync) == 0 {
					g.emit(trace.Record{Call: str("fsync"), FD: fdPriv, Ret: 0})
				}
				g.emit(trace.Record{Call: str("close"), FD: fdPriv, Ret: 0})
			} else {
				hot := written
				if hot > blocks {
					hot = blocks
				}
				off := rng.Int63n(hot) * 4096
				g.emit(trace.Record{Call: str("open"), Path: str(f), Flags: trace.ORdonly, FD: fdPriv, Ret: fdPriv})
				g.emit(trace.Record{Call: str("pread"), FD: fdPriv, Offset: off, Size: 4096, Ret: 4096})
				g.emit(trace.Record{Call: str("close"), FD: fdPriv, Ret: 0})
			}
		}
	}
	mergeStreams(tr)
	return tr, snap, nil
}
