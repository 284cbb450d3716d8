package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/fault"
	"rootreplay/internal/fault/chaostest"
	"rootreplay/internal/stack"
)

func target(t *testing.T, name string, cachePages int64, cfqSlice time.Duration) stack.Config {
	t.Helper()
	conf, err := stack.ParseTarget(name, cachePages, cfqSlice)
	if err != nil {
		t.Fatal(err)
	}
	return conf
}

// A command line becomes a RunSpec and nothing else decides the replay,
// so these tables are the CLI's whole contract with the driver.
func TestFlagsToRunSpec(t *testing.T) {
	plan := chaostest.DefaultPlan()
	harsh := fault.Plan{
		Syscall: fault.SyscallPlan{Rate: 0.5, Errno: "ENOSPC"},
		Storage: fault.StoragePlan{ErrorRate: 0.25, SlowRate: 0.125},
		Retry:   fault.RetryPlan{MaxAttempts: 2},
	}
	cases := []struct {
		name  string
		parse func([]string) (*runFlags, error)
		line  string
		want  artc.RunSpec
	}{
		{"replay defaults", parseReplay, "-bench x.bench", artc.RunSpec{
			Options: artc.Options{Method: artc.MethodARTC, Speed: artc.AFAP},
			Target:  target(t, "linux-ext4-hdd", 0, 0),
		}},
		{"replay scaled", parseReplay, "-bench x.bench -speed scaled -scale 2.5 -method temporal -osx-full-fsync", artc.RunSpec{
			Options: artc.Options{Method: artc.MethodTemporal, Speed: artc.Scaled, Scale: 2.5, FullFsyncOnOSX: true},
			Target:  target(t, "linux-ext4-hdd", 0, 0),
		}},
		{"replay -scale means nothing without -speed scaled", parseReplay, "-bench x.bench -speed natural -scale 2.5", artc.RunSpec{
			Options: artc.Options{Method: artc.MethodARTC, Speed: artc.Natural},
			Target:  target(t, "linux-ext4-hdd", 0, 0),
		}},
		{"replay sliced on a tuned target", parseReplay,
			"-bench x.bench -target osx-hfs+-ssd-noop -cache-pages 1000 -slice 50ms -shards 4 -slice-actions 500 -slice-max 3 -slice-device-sync -warm",
			artc.RunSpec{
				Options: artc.Options{Method: artc.MethodARTC, Speed: artc.AFAP},
				Target:  target(t, "osx-hfs+-ssd-noop", 1000, 50*time.Millisecond),
				Warm:    true, Shards: 4, SliceActions: 500, SliceMax: 3, SliceDeviceSync: true,
			}},
		{"replay negative shards", parseReplay, "-bench x.bench -shards -1", artc.RunSpec{
			Options: artc.Options{Method: artc.MethodARTC, Speed: artc.AFAP},
			Target:  target(t, "linux-ext4-hdd", 0, 0),
			Shards:  -1,
		}},
		{"trace defaults", parseTrace, "-magritte pages_docphoto15", artc.RunSpec{
			Options: artc.Options{Method: artc.MethodARTC},
			Target:  target(t, "linux-ext4-ssd-noop", 0, 0),
		}},
		{"trace sliced", parseTrace, "-bench x.bench -shards 2 -slice-actions 700 -warm -no-samples -probe-interval 1ms -method single", artc.RunSpec{
			Options: artc.Options{Method: artc.MethodSingle, ObsInterval: time.Millisecond},
			Target:  target(t, "linux-ext4-ssd-noop", 0, 0),
			Warm:    true, Shards: 2, SliceActions: 700,
		}},
		{"trace negative shards", parseTrace, "-bench x.bench -shards -8 -target linux-ext4-hdd-cfq", artc.RunSpec{
			Options: artc.Options{Method: artc.MethodARTC},
			Target:  target(t, "linux-ext4-hdd-cfq", 0, 0),
			Shards:  -8,
		}},
		{"chaos defaults", parseChaos, "-magritte pages_docphoto15", artc.RunSpec{
			Target: target(t, "linux-ext4-ssd-noop", 0, 0),
			Fault:  &plan,
		}},
		{"chaos negative shards, own plan", parseChaos,
			"-magritte pages_docphoto15 -shards -1 -slice-actions 500 -slice-max 2 -syscall-rate 0.5 -errno ENOSPC -storage-error-rate 0.25 -storage-slow-rate 0.125 -retries 2 -watchdog 0",
			artc.RunSpec{
				Target: target(t, "linux-ext4-ssd-noop", 0, 0),
				Fault:  &harsh,
				Shards: -1, SliceActions: 500, SliceMax: 2,
			}},
		{"chaos plan at its bounds", parseChaos,
			"-magritte pages_docphoto15 -syscall-rate 1 -storage-error-rate 0 -storage-slow-rate 1 -retries 1 -watchdog 0",
			artc.RunSpec{
				Target: target(t, "linux-ext4-ssd-noop", 0, 0),
				Fault: &fault.Plan{
					Syscall: fault.SyscallPlan{Rate: 1, Errno: "EIO"},
					Storage: fault.StoragePlan{SlowRate: 1},
					Retry:   fault.RetryPlan{MaxAttempts: 1},
				},
			}},
	}
	for _, tc := range cases {
		f, err := tc.parse(strings.Fields(tc.line))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(f.spec, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, f.spec, tc.want)
		}
	}
}

// What the flags set besides the spec.
func TestFlagsBesidesTheSpec(t *testing.T) {
	f, err := parseTrace(strings.Fields("-magritte itunes_album1 -gen-scale 0.5 -gen-seed 9 -o out.json -quiet -no-samples -span-cap 64 -crit-hops 3 -shards 2 -slice-actions 10 -cache-dir /c -no-cache"))
	if err != nil {
		t.Fatal(err)
	}
	want := runFlags{
		spec: f.spec, target: "linux-ext4-ssd-noop", cacheDir: "/c", noCache: true,
		magritte: "itunes_album1", out: "out.json", genScale: 0.5, genSeed: 9,
		quiet: true, noSamples: true, spanCap: 64, critHops: 3,
	}
	if !reflect.DeepEqual(*f, want) {
		t.Errorf("trace:\n got %+v\nwant %+v", *f, want)
	}
	f, err = parseChaos(strings.Fields("-magritte itunes_album1 -seed 7 -seeds 3 -verify -quiet"))
	if err != nil {
		t.Fatal(err)
	}
	if f.seed != 7 || f.seeds != 3 || !f.verify || !f.quiet || f.out != "" || f.genScale != 0.02 || f.genSeed != 5 {
		t.Errorf("chaos: got %+v", *f)
	}
	f, err = parseReplay(strings.Fields("-bench x.bench -timeline"))
	if err != nil {
		t.Fatal(err)
	}
	if !f.timeline || f.bench != "x.bench" {
		t.Errorf("replay: got %+v", *f)
	}
}

func TestFlagErrors(t *testing.T) {
	cases := []struct {
		name    string
		parse   func([]string) (*runFlags, error)
		line    string
		wantErr string
	}{
		{"replay slice without shards", parseReplay, "-bench x.bench -slice-actions 500", "slice options require Shards"},
		{"replay slice cap without shards", parseReplay, "-bench x.bench -slice-max 2", "slice options require Shards"},
		{"replay device-sync without shards", parseReplay, "-bench x.bench -slice-device-sync", "slice options require Shards"},
		{"trace slice without shards", parseTrace, "-bench x.bench -slice-actions 500 -warm", "slice options require Shards"},
		{"chaos slice without shards", parseChaos, "-magritte pages_docphoto15 -slice-actions 500", "slice options require Shards"},
		{"replay without bench", parseReplay, "-shards 2", "-bench is required"},
		{"replay bad speed", parseReplay, "-bench x.bench -speed warp", "unknown speed"},
		{"replay bad target", parseReplay, "-bench x.bench -target linux", "platform-fs-device"},
		{"chaos without trace", parseChaos, "-seeds 4", "-magritte is required"},
		{"chaos export of a sweep", parseChaos, "-magritte pages_docphoto15 -seeds 4 -o out.json", "single seed"},
		// A fault plan no replay can run is refused before any seed replays.
		{"chaos unknown errno", parseChaos, "-magritte pages_docphoto15 -errno BOGUS -seeds 2", `-errno "BOGUS": unknown errno`},
		{"chaos syscall rate above one", parseChaos, "-magritte pages_docphoto15 -syscall-rate 7", "-syscall-rate 7: a probability"},
		{"chaos negative storage error rate", parseChaos, "-magritte pages_docphoto15 -storage-error-rate -1", "-storage-error-rate -1: a probability"},
		{"chaos slow rate not a number", parseChaos, "-magritte pages_docphoto15 -storage-slow-rate NaN", "-storage-slow-rate NaN: a probability"},
		{"chaos no attempt", parseChaos, "-magritte pages_docphoto15 -retries 0", "-retries 0: at least 1"},
		{"chaos negative watchdog", parseChaos, "-magritte pages_docphoto15 -watchdog -1s", "-watchdog -1s: must not be negative"},
		{"chaos no seed", parseChaos, "-magritte pages_docphoto15 -seeds 0", "-seeds 0: at least 1"},
	}
	for _, tc := range cases {
		if _, err := tc.parse(strings.Fields(tc.line)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
