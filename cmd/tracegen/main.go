// Command tracegen produces traces (and their snapshots) by running
// built-in workloads on a simulated source machine, so benchmarks can be
// compiled and replayed without external trace files.
//
//	tracegen -workload randomreaders -threads 8 -o rr.trace -snapshot rr.snap
//	tracegen -workload readrandom -source linux-ext4-hdd -o db.trace -snapshot db.snap
//	tracegen -workload magritte:iphoto_edit400 -scale 0.01 -o iphoto.trace -snapshot iphoto.snap
//	tracegen -family components -components 64 -ops 100000 -skew 1.0 -o comp.trace -snapshot comp.snap
//
// Workloads: randomreaders, cachereaders, seqcompetitors, fillsync,
// readrandom, magritte:<name>. The -family flag selects a direct
// synthesizer instead: "components" emits the sharded-replay scale
// corpus (mutually independent per-thread groups, -ops total
// operations split across -components groups by -skew); "pipeline"
// emits the resource-cut slicing corpus (-stages threads chained into
// one component by shared handoff files exchanged every -handoff ops,
// -ops operations per stage; -fsync N turns it into the fsync-heavy
// writeback perf variant).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rootreplay/internal/leveldb"
	"rootreplay/internal/magritte"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
	"rootreplay/internal/workload"
)

func main() {
	wl := flag.String("workload", "randomreaders", "workload name (see doc)")
	source := flag.String("source", "linux-ext4-hdd", "source machine (platform-fs-device)")
	threads := flag.Int("threads", 4, "workload threads")
	ops := flag.Int("ops", 500, "operations per thread")
	fileMB := flag.Int64("file-mb", 1024, "per-file size for microbenchmarks (MiB)")
	records := flag.Int("records", 20000, "database records for readrandom")
	scale := flag.Float64("scale", 0.01, "magritte trace scale")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	family := flag.String("family", "", `synthetic family ("components" or "pipeline"); overrides -workload`)
	comps := flag.Int("components", 16, "independent groups for -family components")
	skew := flag.Float64("skew", 0, "component size skew for -family components (weight (c+1)^-skew)")
	stages := flag.Int("stages", 8, "stage threads for -family pipeline")
	handoff := flag.Int("handoff", 16, "ops between boundary-file exchanges for -family pipeline")
	fsync := flag.Int("fsync", 0, "fsync every Nth private write for -family pipeline (0 = fsync-free, the byte-identity shape)")
	fileMBFam := flag.Int64("family-file-mb", 0, "per-file size for -family pipeline (MiB; 0 = family default)")
	out := flag.String("o", "out.trace", "output trace file")
	snapOut := flag.String("snapshot", "out.snap", "output snapshot file")
	format := flag.String("format", "native", "trace output format: native or strace")
	flag.Parse()

	if *family != "" {
		*wl = "family:" + *family
	}
	if err := run(*wl, *source, *threads, *ops, *fileMB, *records, *scale, *seed, *comps, *skew, *stages, *handoff, *fsync, *fileMBFam, *out, *snapOut, *format); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func run(wl, source string, threads, ops int, fileMB int64, records int, scale float64, seed int64, comps int, skew float64, stages, handoff, fsync int, fileMBFam int64, out, snapOut, format string) error {
	var tr *trace.Trace
	var snap *snapshot.Snapshot
	var elapsed time.Duration

	if name, ok := strings.CutPrefix(wl, "family:"); ok {
		var err error
		switch name {
		case "components":
			tr, snap, err = workload.SynthComponents(workload.Components{
				N: comps, Ops: ops, Skew: skew, Seed: seed,
			})
		case "pipeline":
			tr, snap, err = workload.SynthPipeline(workload.Pipeline{
				Stages: stages, Ops: ops, Handoff: handoff, Fsync: fsync,
				FileBytes: fileMBFam << 20, Seed: seed,
			})
		default:
			return fmt.Errorf("unknown family %q", name)
		}
		if err != nil {
			return err
		}
		elapsed = tr.Duration()
	} else if name, ok := strings.CutPrefix(wl, "magritte:"); ok {
		spec, found := magritte.SpecByName(name)
		if !found {
			return fmt.Errorf("unknown magritte trace %q", name)
		}
		gen, err := magritte.Generate(spec, magritte.GenOptions{Scale: scale, Seed: seed})
		if err != nil {
			return err
		}
		tr, snap = gen.Trace, gen.Snapshot
		elapsed = tr.Duration()
	} else {
		conf, err := sourceConfig(source)
		if err != nil {
			return err
		}
		w, err := makeWorkload(wl, threads, ops, fileMB<<20, records, seed)
		if err != nil {
			return err
		}
		tr, snap, elapsed, err = workload.TraceWorkload(conf, w)
		if err != nil {
			return err
		}
	}

	tf, err := os.Create(out)
	if err != nil {
		return err
	}
	defer tf.Close()
	switch format {
	case "native":
		err = tr.Encode(tf)
	case "strace":
		// Rendered as `strace -f -ttt -T` text, the ingest benchmarks'
		// and CI lane's parser corpus.
		err = trace.EncodeStrace(tf, tr)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	sf, err := os.Create(snapOut)
	if err != nil {
		return err
	}
	defer sf.Close()
	if err := snap.Encode(sf); err != nil {
		return err
	}
	fmt.Printf("traced %d records / %d threads over %v (virtual) -> %s, %s\n",
		len(tr.Records), len(tr.Threads()), elapsed, out, snapOut)
	return nil
}

func sourceConfig(name string) (stack.Config, error) {
	return stack.ParseTarget(name, 0, 0)
}

func makeWorkload(name string, threads, ops int, fileBytes int64, records int, seed int64) (workload.Workload, error) {
	switch name {
	case "randomreaders":
		return &workload.RandomReaders{Threads: threads, ReadsPerThread: ops, FileBytes: fileBytes, Seed: seed}, nil
	case "cachereaders":
		return &workload.CacheReaders{ReadsPerThread: ops, FileBytes: fileBytes, Seed: seed}, nil
	case "seqcompetitors":
		return &workload.SeqCompetitors{ReadsPerThread: ops, FileBytes: fileBytes}, nil
	case "fillsync":
		return &leveldb.FillSync{Threads: threads, OpsPerThread: ops, ValueBytes: 512, Seed: seed}, nil
	case "readrandom":
		return &leveldb.ReadRandom{Threads: threads, OpsPerThread: ops, Records: records, ValueBytes: 512, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}
