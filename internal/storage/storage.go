// Package storage models block storage devices in virtual time.
//
// Devices service block Requests and report completions through
// callbacks run in sim kernel context. Three device models are provided:
//
//   - HDD: a rotating disk with a seek-distance service-time model and an
//     internal command queue that picks the nearest pending request
//     (NCQ/elevator behaviour), so deeper queues yield shorter average
//     seeks and higher throughput.
//   - SSD: a flash device with flat access latency and internal channel
//     parallelism.
//   - RAID0: a striping array over member devices.
//
// All addressing is in fixed-size blocks of BlockSize bytes.
package storage

import (
	"fmt"
	"math"
	"time"

	"rootreplay/internal/sim"
)

// BlockSize is the size in bytes of one device block (and of one page in
// the page cache above).
const BlockSize = 4096

// Kind distinguishes reads from writes.
type Kind int

const (
	// Read transfers blocks from the device.
	Read Kind = iota
	// Write transfers blocks to the device.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Request is one block I/O operation.
type Request struct {
	Kind   Kind
	LBA    int64 // first block address
	Blocks int   // number of contiguous blocks
	Owner  int   // issuing sim-thread ID, used by schedulers for accounting
}

// End returns the block address one past the last block of the request.
func (r *Request) End() int64 { return r.LBA + int64(r.Blocks) }

// Stats accumulates device activity counters.
type Stats struct {
	Reads        int64
	Writes       int64
	BlocksRead   int64
	BlocksWrite  int64
	BusyTime     time.Duration
	SeekTime     time.Duration
	TransferTime time.Duration
}

// Util returns the fraction of the elapsed interval the device was busy,
// normalized by parallelism (a saturated 8-channel SSD reports 1.0, not
// 8.0). Callers sampling utilization over a window subtract two BusyTime
// snapshots and pass the delta in a Stats value.
func (s Stats) Util(elapsed time.Duration, parallelism int) float64 {
	if elapsed <= 0 {
		return 0
	}
	if parallelism < 1 {
		parallelism = 1
	}
	u := float64(s.BusyTime) / float64(elapsed) / float64(parallelism)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Device is a block device that services requests in virtual time.
// Submit never blocks; done is invoked in kernel context at the virtual
// time the request completes. Devices may reorder queued requests
// internally.
type Device interface {
	// Name identifies the device in logs and reports.
	Name() string
	// Submit enqueues r; done runs in kernel context on completion.
	Submit(r *Request, done func())
	// Outstanding reports the number of submitted-but-incomplete requests.
	Outstanding() int
	// Parallelism reports how many requests the device can usefully
	// service at once (1 for an HDD; channels for an SSD; the sum for a
	// RAID array). Schedulers use it to bound dispatch.
	Parallelism() int
	// QueueDepth reports how many requests the device will accept and
	// potentially reorder internally (NCQ depth for an HDD). Schedulers
	// use it as their dispatch budget: keeping this many requests at the
	// device lets its internal elevator work.
	QueueDepth() int
	// Rotational reports whether the device has seek/rotation mechanics;
	// schedulers disable anticipatory idling on non-rotational devices,
	// as Linux CFQ does.
	Rotational() bool
	// Stats returns a snapshot of activity counters.
	Stats() Stats
}

// HDDParams describe a rotating disk's performance envelope.
type HDDParams struct {
	Blocks      int64         // capacity
	MinSeek     time.Duration // shortest non-zero seek (track-to-track)
	MaxSeek     time.Duration // full-stroke seek
	RotationRPM int           // spindle speed, e.g. 7200
	BandwidthBs int64         // media transfer rate, bytes/second
	QueueDepth  int           // internal command queue (NCQ) capacity; <=1 disables reordering
	// NCQRotGain scales how much a deeper command queue reduces expected
	// rotational latency: with c candidates queued, rotational wait is
	// halfRotation / (1 + NCQRotGain*(c-1)). Real NCQ drives pick the
	// request whose sector sweeps under the head soonest, so rotational
	// wait shrinks with queue depth; this is the first-order model of
	// that effect (and the source of Figure 5(a)'s sublinear slowdown).
	NCQRotGain float64
}

// DefaultHDD returns parameters resembling a 7200 RPM SATA disk.
func DefaultHDD() HDDParams {
	return HDDParams{
		Blocks:      256 << 20 / 4, // 256 GiB / 4 KiB
		MinSeek:     500 * time.Microsecond,
		MaxSeek:     14 * time.Millisecond,
		RotationRPM: 7200,
		BandwidthBs: 120 << 20,
		QueueDepth:  31,
		NCQRotGain:  0.15,
	}
}

// HDD is a single rotating disk. It services one request at a time,
// choosing the queued request nearest the current head position.
type HDD struct {
	k      *sim.Kernel
	name   string
	p      HDDParams
	head   int64
	busy   bool
	queue  []pending
	nQueue int
	stats  Stats

	// inflight is the request being serviced; its completion arrives as
	// a pooled sim event (Complete) rather than a captured closure.
	inflight pending
	// kickPending is set while a same-instant elevator kick event is
	// queued, so a burst of submissions arriving at one instant is
	// re-evaluated by the elevator once, with the full candidate set,
	// instead of once per request.
	kickPending bool
}

// hddKickTag is the Complete tag for the deferred elevator evaluation;
// any other tag is a request completion.
const hddKickTag = ^uint64(0)

type pending struct {
	r    *Request
	done func()
}

// NewHDD constructs an HDD bound to kernel k.
func NewHDD(k *sim.Kernel, name string, p HDDParams) *HDD {
	if p.QueueDepth < 1 {
		p.QueueDepth = 1
	}
	return &HDD{k: k, name: name, p: p}
}

// Name implements Device.
func (d *HDD) Name() string { return d.name }

// Parallelism implements Device. An HDD has a single actuator.
func (d *HDD) Parallelism() int { return 1 }

// QueueDepth implements Device, reporting the NCQ capacity.
func (d *HDD) QueueDepth() int { return d.p.QueueDepth }

// Rotational implements Device.
func (d *HDD) Rotational() bool { return true }

// Outstanding implements Device.
func (d *HDD) Outstanding() int { return d.nQueue }

// Stats implements Device.
func (d *HDD) Stats() Stats { return d.stats }

// Submit implements Device.
func (d *HDD) Submit(r *Request, done func()) {
	if r.Blocks <= 0 {
		panic(fmt.Sprintf("storage: %s: empty request", d.name))
	}
	d.queue = append(d.queue, pending{r, done})
	d.nQueue++
	if !d.busy {
		d.startNext()
	}
}

// kick schedules one elevator evaluation at the current instant,
// batching re-evaluation per instant instead of per request: every
// submission triggered by a completion — the callback's own synchronous
// resubmits and the submissions of any thread the completion wakes at
// the same instant — lands in the queue before the kick event fires, so
// the drive picks its next request from the full candidate set instead
// of greedily starting on the first arrival. Virtual timing is
// unchanged: the kick fires at the instant the completion occurred.
func (d *HDD) kick() {
	if d.kickPending || d.busy {
		return
	}
	d.kickPending = true
	d.k.AfterComplete(0, d, hddKickTag)
}

// Complete implements sim.Completer: either the deferred elevator kick
// or the in-flight request's completion. busy stays held across done()
// so the callback's synchronous submissions queue for the batched kick
// rather than starting the drive one by one.
func (d *HDD) Complete(tag uint64) {
	if tag == hddKickTag {
		d.kickPending = false
		d.startNext()
		return
	}
	p := d.inflight
	d.inflight = pending{}
	d.head = p.r.End()
	d.nQueue--
	p.done()
	d.busy = false
	d.kick()
}

// startNext picks the queued request with the nearest starting LBA to the
// current head position (elevator/NCQ behaviour) and begins servicing it.
// The busy guard matters: a completion callback invokes the requester's
// done function, which may synchronously submit (and kick) the next
// request before the completion's own kick runs; without the guard a
// single-actuator disk would service two requests concurrently.
func (d *HDD) startNext() {
	if d.busy || len(d.queue) == 0 {
		return
	}
	best, bestDist := 0, int64(math.MaxInt64)
	for i, p := range d.queue {
		dist := p.r.LBA - d.head
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	candidates := len(d.queue)
	p := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	d.busy = true

	seek, xfer := d.serviceTime(p.r, candidates)
	svc := seek + xfer
	d.stats.BusyTime += svc
	d.stats.SeekTime += seek
	d.stats.TransferTime += xfer
	if p.r.Kind == Read {
		d.stats.Reads++
		d.stats.BlocksRead += int64(p.r.Blocks)
	} else {
		d.stats.Writes++
		d.stats.BlocksWrite += int64(p.r.Blocks)
	}
	d.inflight = p
	d.k.AfterComplete(svc, d, 0)
}

// serviceTime returns (positioning, transfer) time for servicing r given
// the current head position and the number of candidate requests that
// were queued when the drive chose this one. Positioning is zero for a
// sequential access (head already at r.LBA); otherwise it is a
// square-root seek model plus a rotational latency that shrinks with
// queue depth (NCQ).
func (d *HDD) serviceTime(r *Request, candidates int) (position, transfer time.Duration) {
	dist := r.LBA - d.head
	if dist < 0 {
		dist = -dist
	}
	if dist != 0 {
		frac := math.Sqrt(float64(dist) / float64(d.p.Blocks))
		seek := d.p.MinSeek + time.Duration(frac*float64(d.p.MaxSeek-d.p.MinSeek))
		halfRot := float64(time.Minute) / float64(d.p.RotationRPM) / 2
		if candidates > 1 && d.p.NCQRotGain > 0 {
			halfRot /= 1 + d.p.NCQRotGain*float64(candidates-1)
		}
		position = seek + time.Duration(halfRot)
	}
	bytes := int64(r.Blocks) * BlockSize
	transfer = time.Duration(float64(bytes) / float64(d.p.BandwidthBs) * float64(time.Second))
	return position, transfer
}

// SSDParams describe a flash device.
type SSDParams struct {
	Blocks       int64
	ReadLatency  time.Duration // per-request access latency
	WriteLatency time.Duration
	BandwidthBs  int64 // per-channel transfer rate
	Channels     int   // internal parallelism
}

// DefaultSSD returns parameters resembling a SATA-era (c. 2013)
// consumer SSD: ~0.2ms random-read service, slower writes.
func DefaultSSD() SSDParams {
	return SSDParams{
		Blocks:       256 << 20 / 4,
		ReadLatency:  200 * time.Microsecond,
		WriteLatency: 400 * time.Microsecond,
		BandwidthBs:  250 << 20,
		Channels:     8,
	}
}

// SSD is a flash device servicing up to Channels requests concurrently,
// each with flat latency plus transfer time. Queued requests beyond the
// channel count are serviced FIFO.
type SSD struct {
	k      *sim.Kernel
	name   string
	p      SSDParams
	active int
	queue  []pending
	nQueue int
	stats  Stats

	// slots hold in-flight requests; the slot index is the Complete tag,
	// so completions are pooled tagged events instead of closures.
	slots []pending
	free  []uint64 // recycled slot indices
}

// NewSSD constructs an SSD bound to kernel k.
func NewSSD(k *sim.Kernel, name string, p SSDParams) *SSD {
	if p.Channels < 1 {
		p.Channels = 1
	}
	return &SSD{k: k, name: name, p: p}
}

// Name implements Device.
func (d *SSD) Name() string { return d.name }

// Parallelism implements Device.
func (d *SSD) Parallelism() int { return d.p.Channels }

// QueueDepth implements Device. SSDs accept a deep queue (SATA NCQ is
// 32); extra queued requests keep the channels saturated.
func (d *SSD) QueueDepth() int { return 32 }

// Rotational implements Device.
func (d *SSD) Rotational() bool { return false }

// Outstanding implements Device.
func (d *SSD) Outstanding() int { return d.nQueue }

// Stats implements Device.
func (d *SSD) Stats() Stats { return d.stats }

// Submit implements Device.
func (d *SSD) Submit(r *Request, done func()) {
	if r.Blocks <= 0 {
		panic(fmt.Sprintf("storage: %s: empty request", d.name))
	}
	d.nQueue++
	if d.active < d.p.Channels {
		d.start(pending{r, done})
		return
	}
	d.queue = append(d.queue, pending{r, done})
}

func (d *SSD) start(p pending) {
	d.active++
	lat := d.p.ReadLatency
	if p.r.Kind == Write {
		lat = d.p.WriteLatency
		d.stats.Writes++
		d.stats.BlocksWrite += int64(p.r.Blocks)
	} else {
		d.stats.Reads++
		d.stats.BlocksRead += int64(p.r.Blocks)
	}
	xfer := time.Duration(float64(int64(p.r.Blocks)*BlockSize) / float64(d.p.BandwidthBs) * float64(time.Second))
	svc := lat + xfer
	d.stats.BusyTime += svc
	d.stats.TransferTime += xfer
	var slot uint64
	if n := len(d.free); n > 0 {
		slot = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		d.slots = append(d.slots, pending{})
		slot = uint64(len(d.slots) - 1)
	}
	d.slots[slot] = p
	d.k.AfterComplete(svc, d, slot)
}

// Complete implements sim.Completer: the tagged slot's request is done.
func (d *SSD) Complete(slot uint64) {
	p := d.slots[slot]
	d.slots[slot] = pending{}
	d.free = append(d.free, slot)
	d.active--
	d.nQueue--
	p.done()
	if len(d.queue) > 0 && d.active < d.p.Channels {
		next := d.queue[0]
		d.queue = append(d.queue[:0], d.queue[1:]...)
		d.start(next)
	}
}

// RAID0 stripes blocks across member devices in fixed-size chunks. A
// request spanning multiple stripes is split into per-member
// sub-requests; the parent completes when all parts do.
type RAID0 struct {
	name        string
	members     []Device
	chunkBlocks int64
	outstanding int
}

// NewRAID0 builds a stripe set over members with the given chunk size in
// blocks. The paper's array uses a 512 KiB chunk (128 blocks).
func NewRAID0(name string, chunkBlocks int64, members ...Device) *RAID0 {
	if len(members) == 0 {
		panic("storage: RAID0 needs at least one member")
	}
	if chunkBlocks < 1 {
		panic("storage: RAID0 chunk must be >= 1 block")
	}
	return &RAID0{name: name, members: members, chunkBlocks: chunkBlocks}
}

// Name implements Device.
func (d *RAID0) Name() string { return d.name }

// Parallelism implements Device.
func (d *RAID0) Parallelism() int {
	n := 0
	for _, m := range d.members {
		n += m.Parallelism()
	}
	return n
}

// QueueDepth implements Device, summing member depths.
func (d *RAID0) QueueDepth() int {
	n := 0
	for _, m := range d.members {
		n += m.QueueDepth()
	}
	return n
}

// Rotational implements Device: an array is rotational if any member is.
func (d *RAID0) Rotational() bool {
	for _, m := range d.members {
		if m.Rotational() {
			return true
		}
	}
	return false
}

// Outstanding implements Device.
func (d *RAID0) Outstanding() int { return d.outstanding }

// Stats implements Device. It sums member stats; BusyTime is therefore
// aggregate device-time, not wall time.
func (d *RAID0) Stats() Stats {
	var s Stats
	for _, m := range d.members {
		ms := m.Stats()
		s.Reads += ms.Reads
		s.Writes += ms.Writes
		s.BlocksRead += ms.BlocksRead
		s.BlocksWrite += ms.BlocksWrite
		s.BusyTime += ms.BusyTime
		s.SeekTime += ms.SeekTime
		s.TransferTime += ms.TransferTime
	}
	return s
}

// Submit implements Device, splitting the request along stripe
// boundaries.
func (d *RAID0) Submit(r *Request, done func()) {
	type part struct {
		member int
		lba    int64
		blocks int
	}
	var parts []part
	lba, n := r.LBA, int64(r.Blocks)
	for n > 0 {
		stripe := lba / d.chunkBlocks
		member := int(stripe % int64(len(d.members)))
		memberStripe := stripe / int64(len(d.members))
		off := lba % d.chunkBlocks
		take := d.chunkBlocks - off
		if take > n {
			take = n
		}
		// Merge with previous part if it continues on the same member at
		// the contiguous address (consecutive stripes on a 1-member array,
		// or large chunk).
		mlba := memberStripe*d.chunkBlocks + off
		if len(parts) > 0 {
			last := &parts[len(parts)-1]
			if last.member == member && last.lba+int64(last.blocks) == mlba {
				last.blocks += int(take)
				lba += take
				n -= take
				continue
			}
		}
		parts = append(parts, part{member, mlba, int(take)})
		lba += take
		n -= take
	}
	d.outstanding++
	remain := len(parts)
	for _, p := range parts {
		sub := &Request{Kind: r.Kind, LBA: p.lba, Blocks: p.blocks, Owner: r.Owner}
		d.members[p.member].Submit(sub, func() {
			remain--
			if remain == 0 {
				d.outstanding--
				done()
			}
		})
	}
}
