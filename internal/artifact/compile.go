package artifact

import (
	"errors"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
)

// Stats describes how a cached compile was satisfied.
type Stats struct {
	Key       string // content address ("" when caching was off)
	Hit       bool   // artifact loaded from the store
	Corrupt   bool   // a damaged entry was detected and recompiled
	LoadNs    int64  // time to load+decode the artifact (hits only)
	CompileNs int64  // time to parse/compile (misses only)
	Bytes     int64  // artifact size on disk (0 when caching was off)
}

// CompileTrace compiles an in-memory trace through the store: on a hit
// the benchmark is decoded from the cached binary artifact without
// recompiling; on a miss (or a corrupt entry) it compiles and
// repopulates the cache. A nil store compiles directly.
func CompileTrace(s *Store, tr *trace.Trace, snap *snapshot.Snapshot, modes core.ModeSet) (*artc.Benchmark, Stats, error) {
	if s == nil {
		t0 := time.Now()
		b, err := artc.Compile(tr, snap, modes)
		return b, Stats{CompileNs: time.Since(t0).Nanoseconds()}, err
	}
	key, err := KeyTrace(tr, snap, modes)
	if err != nil {
		return nil, Stats{}, err
	}
	return compileAt(s, key, func() (*artc.Benchmark, error) {
		return artc.Compile(tr, snap, modes)
	})
}

// CompileStrace compiles raw strace text through the store, keyed on
// the raw bytes. On a miss it compiles via the streaming path
// (artc.CompileStrace), so cold compiles keep the lex/analyze overlap.
// A nil store compiles directly.
func CompileStrace(s *Store, raw []byte, snap *snapshot.Snapshot, modes core.ModeSet) (*artc.Benchmark, Stats, error) {
	compile := func() (*artc.Benchmark, error) {
		return artc.CompileStrace(raw, snap, modes)
	}
	if s == nil {
		t0 := time.Now()
		b, err := compile()
		return b, Stats{CompileNs: time.Since(t0).Nanoseconds()}, err
	}
	// The platform in the key is the strace parser's: strace is a Linux
	// tracer, and ParseStrace stamps its traces accordingly.
	return compileAt(s, Key(raw, snap, "linux", modes), compile)
}

// compileAt is the shared get-or-compile-and-put path.
func compileAt(s *Store, key string, compile func() (*artc.Benchmark, error)) (*artc.Benchmark, Stats, error) {
	st := Stats{Key: key}
	t0 := time.Now()
	b, n, err := s.Get(key)
	switch {
	case err == nil:
		st.Hit = true
		st.LoadNs = time.Since(t0).Nanoseconds()
		st.Bytes = n
		return b, st, nil
	case err == ErrMiss:
	default:
		var ce *CorruptError
		if !errors.As(err, &ce) {
			return nil, st, err // I/O failure, not a miss
		}
		st.Corrupt = true // damaged entry removed by Get; recompile
	}
	t0 = time.Now()
	b, err = compile()
	if err != nil {
		return nil, st, err
	}
	st.CompileNs = time.Since(t0).Nanoseconds()
	if st.Bytes, err = s.Put(key, b); err != nil {
		return nil, st, err
	}
	return b, st, nil
}
