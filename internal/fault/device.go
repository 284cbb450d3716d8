package fault

import (
	"rootreplay/internal/sim"
	"rootreplay/internal/storage"
)

// faultyDevice wraps a storage.Device and injects faults at completion
// time: a transient error re-queues the request through the inner
// device (so the elevator/slot logic services it again, with the delay
// a real firmware retry costs), and a slow completion is deferred by a
// tail-latency spike. The wrapper sits below the I/O scheduler, which
// therefore sees requests stay outstanding across retries — exactly the
// pressure a flaky drive puts on dispatch accounting.
type faultyDevice struct {
	inner storage.Device
	k     *sim.Kernel
	in    *Injector

	errs stream
	slow stream

	// completions indexes injection decisions: the inner device
	// completes deterministically, so the i-th completion is the same
	// request in every run with the same workload.
	completions uint64
	outstanding int
}

// WrapDevice returns d with this injector's storage plan applied, or d
// unchanged when the plan injects nothing. Wrapping happens per leaf
// device (RAID members are wrapped individually by the stack), so
// per-device rates compose with striping.
func (in *Injector) WrapDevice(k *sim.Kernel, d storage.Device) storage.Device {
	if !in.plan.Storage.Enabled() {
		return d
	}
	return &faultyDevice{
		inner: d,
		k:     k,
		in:    in,
		errs:  newStream(in.plan.Seed, d.Name()+"/eio"),
		slow:  newStream(in.plan.Seed, d.Name()+"/slow"),
	}
}

// Name implements storage.Device.
func (d *faultyDevice) Name() string { return d.inner.Name() }

// Parallelism implements storage.Device.
func (d *faultyDevice) Parallelism() int { return d.inner.Parallelism() }

// QueueDepth implements storage.Device.
func (d *faultyDevice) QueueDepth() int { return d.inner.QueueDepth() }

// Rotational implements storage.Device.
func (d *faultyDevice) Rotational() bool { return d.inner.Rotational() }

// Stats implements storage.Device, reporting the inner device's
// counters (retried requests are counted per service, as a real drive's
// SMART counters would).
func (d *faultyDevice) Stats() storage.Stats { return d.inner.Stats() }

// Outstanding implements storage.Device. It counts requests submitted
// to the wrapper whose upper-layer completion has not run — including
// requests parked in a retry delay, which the inner device has
// momentarily forgotten about.
func (d *faultyDevice) Outstanding() int { return d.outstanding }

// Submit implements storage.Device.
func (d *faultyDevice) Submit(r *storage.Request, done func()) {
	d.outstanding++
	d.submit(r, done, 0)
}

// submit issues one service attempt for r.
func (d *faultyDevice) submit(r *storage.Request, done func(), attempt int) {
	d.inner.Submit(r, func() {
		i := d.completions
		d.completions++
		plan := &d.in.plan.Storage
		if attempt < maxErrorRetries && d.errs.hit(i, plan.ErrorRate) {
			// Transient error: the device retries internally after a
			// delay; the request re-enters the queue and the elevator
			// picks it against the then-current candidate set.
			d.in.stats.StorageErrors++
			d.k.After(retryDelay, func() { d.submit(r, done, attempt+1) })
			return
		}
		if d.slow.hit(i, plan.SlowRate) {
			d.in.stats.StorageSlow++
			d.k.After(slowExtra, func() {
				d.outstanding--
				done()
			})
			return
		}
		d.outstanding--
		done()
	})
}
