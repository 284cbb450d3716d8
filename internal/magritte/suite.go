package magritte

import (
	"fmt"
	"sort"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/par"
	"rootreplay/internal/stack"
	"rootreplay/internal/vfs"
)

// SuiteOptions configure a suite run.
type SuiteOptions struct {
	Gen GenOptions
	// Target is the replay machine; zero value means the paper's §5.1
	// setup (Linux/ext4/SSD, warm cache, AFAP).
	Target stack.Config
	// DevRandomSymlink applies the paper's fix of creating /dev/random
	// as a symlink to /dev/urandom on Linux targets (on by default via
	// DefaultSuiteOptions).
	DevRandomSymlink bool
}

// DefaultSuiteOptions mirrors the paper's semantic-correctness setup.
func DefaultSuiteOptions() SuiteOptions {
	return SuiteOptions{
		Gen: GenOptions{Scale: 0.01},
		Target: stack.Config{
			Name:      "linux-ext4-ssd",
			Platform:  stack.Linux,
			Profile:   stack.Ext4,
			Device:    stack.DeviceSSD,
			Scheduler: stack.SchedNoop,
		},
		DevRandomSymlink: true,
	}
}

// InitTarget initializes a target system for a Magritte benchmark,
// applying platform-specific special-file handling: on Linux,
// /dev/random blocks, so it is either recreated as the blocking device
// or (with the symlink fix) pointed at /dev/urandom (§5.1).
func InitTarget(sys *stack.System, b *artc.Benchmark, devRandomSymlink bool) error {
	if err := artc.Init(sys, b, ""); err != nil {
		return err
	}
	if sys.Conf.Platform != stack.Linux {
		return nil
	}
	if _, err := sys.FS.ResolveNoFollow(nil, "/dev/random"); err != vfs.OK {
		return nil
	}
	if err := sys.FS.Unlink(nil, "/dev/random"); err != vfs.OK {
		return fmt.Errorf("magritte: resetting /dev/random: %w", err)
	}
	if devRandomSymlink {
		return sys.SetupSymlink("/dev/urandom", "/dev/random")
	}
	return sys.SetupSpecial("/dev/random", stack.SpecialRandomBlocking)
}

// TargetInit is InitTarget in the shape artc.RunSpec.Init takes.
func TargetInit(b *artc.Benchmark, devRandomSymlink bool) func(*stack.System) error {
	return func(sys *stack.System) error { return InitTarget(sys, b, devRandomSymlink) }
}

// Result is one trace's suite outcome (a Table 3 row).
type Result struct {
	Name        string
	Events      int
	UCErrors    int // unconstrained replay failures
	ARTCErrors  int // ARTC replay failures
	ARTCElapsed time.Duration
	// ThreadTimeByCat is the ARTC replay's thread-time split into the
	// categories of Figure 10.
	ThreadTimeByCat map[string]time.Duration
}

// Categories for the Figure 10 thread-time breakdown.
var Categories = []string{"read", "write", "fsync", "stat", "open/close", "other"}

// categorize maps a call name to a Figure 10 category.
func categorize(call string) string {
	switch stack.Canonical(call) {
	case "read", "pread", "mmap", "getdents", "getdirentriesattr":
		return "read"
	case "write", "pwrite":
		return "write"
	case "fsync", "fdatasync", "sync", "msync":
		return "fsync"
	case "stat", "lstat", "fstat", "access", "getattrlist", "setattrlist",
		"statfs", "fstatfs", "getxattr", "lgetxattr", "listxattr", "llistxattr",
		"setxattr", "lsetxattr", "removexattr", "lremovexattr",
		"fgetxattr", "fsetxattr", "flistxattr", "fremovexattr",
		"fsctl", "searchfs", "vfsconf", "readlink":
		return "stat"
	case "open", "creat", "close", "dup", "dup2":
		return "open/close"
	default:
		return "other"
	}
}

// RunOne generates one trace, compiles it, and replays it with the
// unconstrained and ARTC methods on the target, producing a Table 3 row.
func RunOne(spec Spec, opts SuiteOptions) (*Result, error) {
	gen, err := Generate(spec, opts.Gen)
	if err != nil {
		return nil, err
	}
	b, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		return nil, err
	}
	res := &Result{Name: spec.FullName(), Events: len(gen.Trace.Records)}

	uc, err := replayOn(b, opts.Target, opts.DevRandomSymlink, artc.MethodUnconstrained)
	if err != nil {
		return nil, fmt.Errorf("%s unconstrained: %w", spec.FullName(), err)
	}
	res.UCErrors = uc.Errors

	ar, err := replayOn(b, opts.Target, opts.DevRandomSymlink, artc.MethodARTC)
	if err != nil {
		return nil, fmt.Errorf("%s artc: %w", spec.FullName(), err)
	}
	res.ARTCErrors = ar.Errors
	res.ARTCElapsed = ar.Elapsed
	res.ThreadTimeByCat = make(map[string]time.Duration)
	for call, d := range ar.CallTime {
		res.ThreadTimeByCat[categorize(call)] += d
	}
	return res, nil
}

// replayOn replays b AFAP on a fresh Magritte-initialized target.
func replayOn(b *artc.Benchmark, target stack.Config, devRandomSymlink bool, method artc.Method) (*artc.Report, error) {
	rep, _, err := artc.Run(b, artc.RunSpec{
		Options: artc.Options{Method: method, Speed: artc.AFAP},
		Target:  target,
		Init:    TargetInit(b, devRandomSymlink),
	})
	return rep, err
}

// RunSuite runs every Magritte trace, returning results in Specs order.
// Each trace is generated, compiled, and replayed in its own simulation,
// so the suite fans out across cores; per-spec seeds keep every trace —
// and therefore every result — identical to a serial run.
func RunSuite(opts SuiteOptions) ([]*Result, error) {
	out := make([]*Result, len(Specs))
	err := par.ForEach(len(Specs), func(i int) error {
		o := opts
		o.Gen.Seed = opts.Gen.Seed + int64(i)*1000003
		r, err := RunOne(Specs[i], o)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ThreadTimeRun replays one compiled benchmark with ARTC on the given
// target and returns the thread-time breakdown (for Figure 10's HDD vs
// SSD comparison).
func ThreadTimeRun(b *artc.Benchmark, target stack.Config, devRandomSymlink bool) (map[string]time.Duration, time.Duration, error) {
	rep, err := replayOn(b, target, devRandomSymlink, artc.MethodARTC)
	if err != nil {
		return nil, 0, err
	}
	byCat := make(map[string]time.Duration)
	var total time.Duration
	for call, d := range rep.CallTime {
		byCat[categorize(call)] += d
		total += d
	}
	return byCat, total, nil
}

// FormatTable3 renders results like the paper's Table 3.
func FormatTable3(results []*Result) string {
	out := fmt.Sprintf("%-24s %10s %8s %8s\n", "Trace", "UC", "ARTC", "Events")
	for _, r := range results {
		out += fmt.Sprintf("%-24s %10d %8d %8d\n", r.Name, r.UCErrors, r.ARTCErrors, r.Events)
	}
	return out
}

// SortedCategories returns a breakdown's categories in canonical order,
// for stable output.
func SortedCategories(byCat map[string]time.Duration) []string {
	keys := make([]string, 0, len(byCat))
	for k := range byCat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
