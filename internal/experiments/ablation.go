package experiments

import (
	"fmt"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/leveldb"
	"rootreplay/internal/metrics"
	"rootreplay/internal/workload"
)

// AblationRow measures one mode set on the readrandom replay.
type AblationRow struct {
	Name    string
	Modes   core.ModeSet
	Edges   int
	MeanLen time.Duration
	Elapsed time.Duration
	Err     float64 // timing error vs original
	SemErr  int     // semantic errors
}

// AblationResult is the mode-set ablation: how each ROOT rule
// contributes constraint (edges), timing accuracy, and semantic
// correctness, from no cross-thread ordering at all up to program_seq.
type AblationResult struct {
	Original time.Duration
	Rows     []AblationRow
}

// Ablation traces the 4-thread readrandom workload once and replays it
// under a ladder of mode sets.
func Ablation(p Params) (*AblationResult, error) {
	w := &leveldb.ReadRandom{Threads: 4, OpsPerThread: p.DBOpsPerThread,
		Records: p.DBRecords, ValueBytes: p.DBValueBytes, Seed: 61}
	conf := hddConf()
	tr, snap, _, err := workload.TraceWorkload(conf, w)
	if err != nil {
		return nil, err
	}
	orig, err := workload.Run(conf, w)
	if err != nil {
		return nil, err
	}
	b, err := artc.Compile(tr, snap, core.DefaultModes())
	if err != nil {
		return nil, err
	}

	ladder := []struct {
		name  string
		modes core.ModeSet
	}{
		{"thread_seq only", core.ModeSet{}},
		{"+fd_stage", core.ModeSet{FDStage: true}},
		{"+fd_seq", core.ModeSet{FDStage: true, FDSeq: true}},
		{"+path_stage+name", core.ModeSet{FDStage: true, FDSeq: true, PathStageName: true}},
		{"+file_seq (default)", core.DefaultModes()},
		{"program_seq", core.ModeSet{ProgramSeq: true}},
	}

	res := &AblationResult{Original: orig}
	for _, step := range ladder {
		// GraphFor memoizes per mode set, so the replay below (which
		// overrides Modes) reuses this graph instead of rebuilding it.
		g := b.GraphFor(step.modes)
		st := g.Stats(b.Analysis)
		modes := step.modes
		rep, _, err := artc.Run(b, artc.RunSpec{Options: artc.Options{Method: artc.MethodARTC, Modes: &modes}, Target: conf})
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", step.name, err)
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:    step.name,
			Modes:   step.modes,
			Edges:   st.Edges,
			MeanLen: st.MeanLength,
			Elapsed: rep.Elapsed,
			Err:     metrics.RelError(rep.Elapsed, orig),
			SemErr:  rep.Errors,
		})
	}
	return res, nil
}

// Format renders the ladder.
func (r *AblationResult) Format() string {
	t := metrics.NewTable("mode set", "edges", "mean span", "elapsed", "timing err", "semantic err")
	for _, row := range r.Rows {
		t.Row(row.Name, row.Edges, row.MeanLen, row.Elapsed, metrics.PctString(row.Err), row.SemErr)
	}
	return fmt.Sprintf("Mode-set ablation (readrandom, original %v)\n%s", r.Original, t.String())
}
