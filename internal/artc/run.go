package artc

import (
	"errors"
	"fmt"

	"rootreplay/internal/fault"
	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
)

// RunSpec says everything that turns a compiled benchmark into one
// replay: the target machine, how a fresh machine is initialized, the
// replay options, and which engine runs it. It is the one description
// every driver (artc replay/trace/chaos, artcd, perfstat, the chaos
// harness, the experiments) fills in, so two drivers given equal specs
// run the same code, not two copies kept equal by hand.
type RunSpec struct {
	// Options are the replay options. Options.Fault must be nil: Run
	// builds each machine's injector itself, from Fault.
	Options Options
	// Target is the simulated machine. Its Faults field is ignored (see
	// Fault).
	Target stack.Config
	// Init initializes one freshly built machine; nil restores the
	// benchmark's snapshot (Init(sys, b, "")). A sharded run calls it
	// once per replica, concurrently, always on distinct systems.
	Init func(sys *stack.System) error
	// Warm pre-warms every machine's metadata and page caches after Init
	// — the device-independence precondition for sliced ≡ serial byte
	// identity.
	Warm bool
	// Shards selects the engine: 0 replays serially (Replay), n > 0
	// through ReplaySharded with n host workers, n < 0 through
	// ReplaySharded with GOMAXPROCS workers. The worker count never
	// changes the output.
	Shards int
	// Fault, when non-nil, gives every machine its own injector built
	// from this plan, wired into both the device stack and the replayer.
	Fault *fault.Plan
	// SliceActions, SliceMax and SliceDeviceSync are ShardOptions'
	// slicing fields; they require Shards != 0.
	SliceActions    int
	SliceMax        int
	SliceDeviceSync bool
}

// ErrInit marks a Run failure that happened while initializing a target
// machine, before any action replayed.
var ErrInit = errors.New("artc: target init")

// Validate reports the combinations Run refuses: slice options on the
// serial engine, which would be silently ignored, and a ready-made
// injector, which could not be given to every replica.
func (spec *RunSpec) Validate() error {
	if spec.Options.Fault != nil {
		return errors.New("artc: RunSpec takes a fault plan in Fault, not an injector in Options.Fault")
	}
	if spec.Shards == 0 && (spec.SliceActions != 0 || spec.SliceMax != 0 || spec.SliceDeviceSync) {
		return errors.New("artc: slice options require Shards != 0 (the serial replayer does not slice)")
	}
	return nil
}

// newReplica builds one target machine — its own kernel, its own
// injector when there is a plan — and initializes it. The serial arm of
// Run and every member of a sharded replay build their machine here.
func newReplica(target stack.Config, plan *fault.Plan, init func(*stack.System) error) (*stack.System, *fault.Injector, error) {
	var inj *fault.Injector
	if plan != nil {
		inj = fault.New(*plan)
	}
	target.Faults = inj
	sys := stack.New(sim.NewKernel(), target)
	if init != nil {
		if err := init(sys); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrInit, err)
		}
	}
	return sys, inj, nil
}

// Run replays b as spec describes. The ShardStats are nil for a serial
// run.
func Run(b *Benchmark, spec RunSpec) (*Report, *ShardStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	init := spec.Init
	if init == nil {
		init = func(sys *stack.System) error { return Init(sys, b, "") }
	}
	if spec.Warm {
		base := init
		init = func(sys *stack.System) error {
			if err := base(sys); err != nil {
				return err
			}
			sys.WarmAll()
			return nil
		}
	}
	if spec.Shards == 0 {
		sys, inj, err := newReplica(spec.Target, spec.Fault, init)
		if err != nil {
			return nil, nil, err
		}
		opts := spec.Options
		opts.Fault = inj
		rep, err := Replay(sys, b, opts)
		return rep, nil, err
	}
	return ReplaySharded(b, spec.Options, ShardOptions{
		Shards:          max(spec.Shards, 0), // ReplaySharded reads 0 as GOMAXPROCS
		Target:          spec.Target,
		Init:            init,
		Fault:           spec.Fault,
		SliceActions:    spec.SliceActions,
		SliceMax:        spec.SliceMax,
		SliceDeviceSync: spec.SliceDeviceSync,
	})
}
