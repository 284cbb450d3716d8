package artifact

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
)

func genBench(t *testing.T) *magritte.Generated {
	t.Helper()
	sp, ok := magritte.SpecByName("pages_docphoto15")
	if !ok {
		t.Fatal("magritte spec missing")
	}
	gen, err := magritte.Generate(sp, magritte.GenOptions{Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestStoreMissPutGet(t *testing.T) {
	gen := genBench(t)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	modes := core.DefaultModes()
	key, err := KeyTrace(gen.Trace, gen.Snapshot, modes)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(key); err != ErrMiss {
		t.Fatalf("Get on empty store: %v, want ErrMiss", err)
	}

	b, st, err := CompileTrace(s, gen.Trace, gen.Snapshot, modes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hit || st.Key != key || st.Bytes == 0 || st.CompileNs == 0 {
		t.Fatalf("cold compile stats: %+v", st)
	}

	b2, st2, err := CompileTrace(s, gen.Trace, gen.Snapshot, modes)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Hit || st2.LoadNs == 0 || st2.CompileNs != 0 {
		t.Fatalf("warm compile stats: %+v", st2)
	}
	if len(b2.Trace.Records) != len(b.Trace.Records) ||
		len(b2.Graph.Edges) != len(b.Graph.Edges) {
		t.Fatal("cached benchmark differs from compiled")
	}
	// The cached artifact re-encodes byte-identically to the fresh one.
	var fresh, cached bytes.Buffer
	if err := b.EncodeBinary(&fresh); err != nil {
		t.Fatal(err)
	}
	if err := b2.EncodeBinary(&cached); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), cached.Bytes()) {
		t.Fatal("cached artifact drifts from fresh compile")
	}
}

func TestKeySeparatesInputs(t *testing.T) {
	gen := genBench(t)
	m1 := core.DefaultModes()
	m2 := m1
	m2.FDSeq = !m2.FDSeq
	k1, err := KeyTrace(gen.Trace, gen.Snapshot, m1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyTrace(gen.Trace, gen.Snapshot, m2)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := KeyTrace(gen.Trace, nil, m1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("keys collide: modes %s/%s nil-snap %s", k1, k2, k3)
	}
	if Key([]byte("x"), nil, "linux", m1) == Key([]byte("x"), nil, "osx", m1) {
		t.Fatal("platform does not separate keys")
	}
}

func TestCorruptEntryRecompiles(t *testing.T) {
	gen := genBench(t)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	modes := core.DefaultModes()
	_, st, err := CompileTrace(s, gen.Trace, gen.Snapshot, modes)
	if err != nil {
		t.Fatal(err)
	}
	p := s.path(st.Key)

	// Flip a bit in the stored artifact.
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Direct Get reports corruption and removes the file.
	if _, _, err := s.Get(st.Key); err == nil {
		t.Fatal("Get returned a corrupt artifact")
	} else {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("Get: %v, want CorruptError", err)
		}
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt entry not removed")
	}

	// Corrupt again via a fresh Put, then prove CompileTrace falls back.
	if _, err := s.Put(st.Key, mustCompile(t, gen)); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(p)
	data[len(data)/3] ^= 0x40
	os.WriteFile(p, data, 0o644)
	b, st2, err := CompileTrace(s, gen.Trace, gen.Snapshot, modes)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Corrupt || st2.Hit || b == nil {
		t.Fatalf("corrupt fallback stats: %+v", st2)
	}
	// The key is repopulated with a good artifact.
	if _, _, err := s.Get(st.Key); err != nil {
		t.Fatalf("repopulated Get: %v", err)
	}
}

func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	gen := genBench(t)
	b := mustCompile(t, gen)
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	one := int64(buf.Len())
	s, err := Open(dir, 3*one+one/2) // room for three artifacts, not four
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		Key([]byte("a"), nil, "linux", core.DefaultModes()),
		Key([]byte("b"), nil, "linux", core.DefaultModes()),
		Key([]byte("c"), nil, "linux", core.DefaultModes()),
		Key([]byte("d"), nil, "linux", core.DefaultModes()),
	}
	for i, k := range keys[:3] {
		if _, err := s.Put(k, b); err != nil {
			t.Fatal(err)
		}
		// Space mtimes out so LRU order is unambiguous on coarse
		// filesystems.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(s.path(k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Touch keys[0] via Get so it is the most recently used.
	if _, _, err := s.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(keys[3], b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(keys[1]); err != ErrMiss {
		t.Fatalf("oldest unused entry survived eviction: %v", err)
	}
	if _, _, err := s.Get(keys[0]); err != nil {
		t.Fatalf("recently used entry evicted: %v", err)
	}
	n, total, err := storeLen(s)
	if err != nil {
		t.Fatal(err)
	}
	if total > 3*one+one/2 {
		t.Fatalf("store over cap after eviction: %d entries, %d bytes", n, total)
	}
}

// TestPutWalksOnlyOverTheCap: the store's size is a running total, so
// filling a store under its cap walks the directory once, at Open, and
// the put that takes it over the cap walks once more and evicts
// oldest-mtime-first, as a walk after every put did.
func TestPutWalksOnlyOverTheCap(t *testing.T) {
	b := mustCompile(t, genBench(t))
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	one := int64(buf.Len())
	const puts = 200
	s, err := Open(t.TempDir(), puts*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, puts+1)
	for i := range keys {
		keys[i] = Key([]byte{byte(i), byte(i >> 8)}, nil, "linux", core.DefaultModes())
	}
	for i, k := range keys[:puts] {
		if _, err := s.Put(k, b); err != nil {
			t.Fatal(err)
		}
		// keys[1] is the oldest entry, keys[0] the second oldest.
		old := time.Now().Add(time.Duration(i^1-puts) * time.Hour)
		if err := os.Chtimes(s.path(k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if s.walks != 1 || s.total != puts*one {
		t.Fatalf("after %d puts under the cap: %d walks (want Open's one), total %d (want %d)", puts, s.walks, s.total, puts*one)
	}
	if _, err := s.Put(keys[puts], b); err != nil {
		t.Fatal(err)
	}
	if s.walks != 2 || s.total != puts*one {
		t.Fatalf("after the put over the cap: %d walks, total %d; want 2 and %d", s.walks, s.total, puts*one)
	}
	if _, _, err := s.Get(keys[1]); err != ErrMiss {
		t.Fatalf("oldest entry survived: %v", err)
	}
	for _, k := range []string{keys[0], keys[puts]} {
		if _, _, err := s.Get(k); err != nil {
			t.Fatalf("entry evicted out of mtime order: %v", err)
		}
	}
	// A store reopened over the same directory starts from what is there.
	if s, err = Open(s.Dir(), 0); err != nil || s.total != puts*one {
		t.Fatalf("reopened: total %d, %v; want %d", s.total, err, puts*one)
	}
}

// TestRePutReplacesItsSize: a Put over an existing entry counts the new
// bytes instead of the old, so putting one key again and again under a
// cap of two and a half entries never walks past Open's walk.
func TestRePutReplacesItsSize(t *testing.T) {
	b := mustCompile(t, genBench(t))
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	one := int64(buf.Len())
	s, err := Open(t.TempDir(), 2*one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("again"), nil, "linux", core.DefaultModes())
	for i := 0; i < 10; i++ {
		if _, err := s.Put(key, b); err != nil {
			t.Fatal(err)
		}
	}
	if s.walks != 1 || s.total != one {
		t.Fatalf("after 10 puts of one key: %d walks (want Open's one), total %d (want %d)", s.walks, s.total, one)
	}
}

// TestCorruptRemovalLeavesTheTotal: Get's removal of a corrupt entry
// takes its bytes off the total, so the re-Put that repopulates the key
// leaves the total what a fresh walk of the directory counts.
func TestCorruptRemovalLeavesTheTotal(t *testing.T) {
	gen := genBench(t)
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := CompileTrace(s, gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	p := s.path(st.Key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := s.Get(st.Key); !errors.As(err, &ce) {
		t.Fatalf("Get of the damaged entry: %v, want CorruptError", err)
	}
	if s.total != 0 {
		t.Fatalf("total %d after the only entry was removed, want 0", s.total)
	}
	if _, err := s.Put(st.Key, mustCompile(t, gen)); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(s.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.total != fresh.total {
		t.Fatalf("running total %d, a fresh walk counts %d", s.total, fresh.total)
	}
}

// TestConcurrentPutsKeepTheTotal: puts from several goroutines, some of
// them over the cap, leave the running total equal to what is on disk
// (run under -race in the vet-race lane).
func TestConcurrentPutsKeepTheTotal(t *testing.T) {
	b := mustCompile(t, genBench(t))
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), 5*int64(buf.Len())+1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := s.Put(Key([]byte{byte(g), byte(i)}, nil, "linux", core.DefaultModes()), b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	n, size, err := storeLen(s)
	if err != nil || n != 5 || size != s.total {
		t.Fatalf("%d entries, %d bytes on disk, running total %d, %v; want 5 entries and equal sizes", n, size, s.total, err)
	}
}

// Files that are not entries — a temp file no writer renamed, a
// *.sliceprof entry left by a build that still had slice profiles — are
// not counted, do not disturb Open, Get or Put, and are swept by the
// next eviction walk once they are older than an hour.
func TestStaleTempFilesCleaned(t *testing.T) {
	key := Key([]byte("x"), nil, "linux", core.DefaultModes())
	b := mustCompile(t, genBench(t))
	cases := []struct {
		name  string
		path  string // relative to the store
		age   time.Duration
		swept bool
	}{
		{"abandoned temp file", ".put-stale", 2 * time.Hour, true},
		{"old slice profile beside its benchmark", filepath.Join(key[:2], key+".sliceprof"), 2 * time.Hour, true},
		{"slice profile under an hour old", filepath.Join("ab", "ab12.sliceprof"), time.Minute, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			planted := filepath.Join(dir, tc.path)
			if err := os.MkdirAll(filepath.Dir(planted), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(planted, []byte("junk"), 0o644); err != nil {
				t.Fatal(err)
			}
			old := time.Now().Add(-tc.age)
			if err := os.Chtimes(planted, old, old); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, 1) // tiny cap: every Put walks and evicts
			if err != nil {
				t.Fatal(err)
			}
			if n, size, err := storeLen(s); err != nil || n != 0 || size != 0 {
				t.Fatalf("Len = %d entries, %d bytes, %v; the planted file is not an entry", n, size, err)
			}
			if _, _, err := s.Get(key); err != ErrMiss {
				t.Fatalf("Get beside the planted file: %v, want ErrMiss", err)
			}
			if _, err := s.Put(key, b); err != nil {
				t.Fatal(err)
			}
			_, err = os.Stat(planted)
			if swept := errors.Is(err, os.ErrNotExist); swept != tc.swept {
				t.Fatalf("after Put: swept = %v (%v), want %v", swept, err, tc.swept)
			}
		})
	}
}

func mustCompile(t *testing.T, gen *magritte.Generated) *artc.Benchmark {
	t.Helper()
	b, _, err := CompileTrace(nil, gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// storeLen walks the store's directory and reports how many artifacts it
// holds and their total size on disk: the oracle for the running total.
func storeLen(s *Store) (n int, bytes int64, err error) {
	err = filepath.WalkDir(s.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !isEntry(p) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		n++
		bytes += info.Size()
		return nil
	})
	return n, bytes, err
}
