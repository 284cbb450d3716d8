// Package artifact is a content-addressed store of compiled benchmark
// artifacts.
//
// ARTC's promise is "compile once, replay anywhere": the durable unit
// of replay is the compiled artifact, not the raw trace (rr and
// iReplayer make the same choice). The store maps a content address —
// the hash of the raw trace bytes, the snapshot, the platform, the
// ordering ModeSet, and the binary format version — to a binary
// benchmark artifact on disk, so a trace that is replayed repeatedly
// (chaos sweeps, shard sweeps, CI lanes) pays for parsing and
// compilation once.
//
// Properties:
//
//   - Writes are atomic: the artifact is written to a temp file in the
//     cache directory and renamed into place, so a crashed or
//     concurrent writer can never leave a half-written entry at a live
//     key. Concurrent writers of the same key race benignly — both
//     write identical bytes (the codec is deterministic).
//   - Reads detect corruption: every artifact carries a whole-file
//     checksum, and a Get that fails to decode removes the damaged
//     entry and reports a CorruptError so the caller can fall back to
//     recompiling. A corrupt cache can cost time, never correctness.
//   - The store is size-capped: a Put that takes it over the cap evicts
//     least-recently-used entries (by file mtime, refreshed on hit) until
//     it fits. The size is a running total (a walk at Open, then each
//     Put's bytes less those of the entry it replaced, less each corrupt
//     entry Get removes) that matches what this process wrote; what
//     another process does to a shared directory is counted at the next
//     walk or Open.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/trace"
)

// ErrMiss reports that no artifact exists at the requested key.
var ErrMiss = errors.New("artifact: cache miss")

// CorruptError reports an artifact that existed but failed to decode.
// Get removes the damaged file before returning it, so the next Put can
// repopulate the key.
type CorruptError struct {
	Key  string
	Path string
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("artifact: corrupt entry %s (%s): %v", e.Key[:12], e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// DefaultMaxBytes caps a store opened with maxBytes <= 0: 1 GiB.
const DefaultMaxBytes = 1 << 30

// Store is an on-disk content-addressed artifact cache rooted at a
// directory. The zero value is not usable; call Open.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	total int64 // bytes of entries: the last walk's count, kept current by Put and Get since
	walks int   // directory walks made, Open's included
}

// DefaultDir returns the per-user default cache directory,
// $XDG_CACHE_HOME/artc (or the platform equivalent).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("artifact: no user cache dir: %w", err)
	}
	return filepath.Join(base, "artc"), nil
}

// Open opens (creating if needed) a store rooted at dir. An empty dir
// selects DefaultDir. maxBytes caps the store's total size; <= 0 means
// DefaultMaxBytes.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	return s, s.evict() // nobody else holds s yet
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key computes the content address for a compile of the given raw trace
// bytes. Everything that changes the compiled artifact participates:
// the trace bytes, the snapshot (nil and empty differ), the platform,
// the ordering modes, and the binary format version — so a format bump
// or a mode change can never alias a stale entry.
func Key(raw []byte, snap *snapshot.Snapshot, platform string, modes core.ModeSet) string {
	h := sha256.New()
	io.WriteString(h, "artc-artifact\x00")
	io.WriteString(h, strconv.Itoa(artc.BinaryFormatVersion))
	io.WriteString(h, "\x00")
	io.WriteString(h, platform)
	io.WriteString(h, "\x00")
	io.WriteString(h, artc.ModesString(modes))
	io.WriteString(h, "\x00")
	if snap != nil {
		io.WriteString(h, "snap\x00")
		snap.Encode(h)
	}
	io.WriteString(h, "\x00")
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil))
}

// KeyTrace computes the content address for an in-memory trace, using
// its canonical native encoding as the raw bytes.
func KeyTrace(tr *trace.Trace, snap *snapshot.Snapshot, modes core.ModeSet) (string, error) {
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return "", fmt.Errorf("artifact: keying trace: %w", err)
	}
	return Key(buf.Bytes(), snap, tr.Platform, modes), nil
}

// path returns the entry file for a key, sharded one directory level by
// the leading key byte so no single directory grows unbounded.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".artc")
}

// Get loads the benchmark stored at key. It returns ErrMiss when the
// key is absent, and a *CorruptError (after deleting the damaged file)
// when the entry exists but fails checksum or decode. The artifact's
// size in bytes is returned alongside for accounting.
func (s *Store) Get(key string) (*artc.Benchmark, int64, error) {
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, ErrMiss
		}
		return nil, 0, fmt.Errorf("artifact: %w", err)
	}
	b, err := artc.DecodeBinaryBytes(data)
	if err != nil {
		s.mu.Lock()
		if info, serr := os.Stat(p); serr == nil && os.Remove(p) == nil {
			s.total -= info.Size()
		}
		s.mu.Unlock()
		return nil, 0, &CorruptError{Key: key, Path: p, Err: err}
	}
	// Refresh mtime so eviction is least-recently-used, not
	// least-recently-written. Best-effort: a failed touch only skews
	// eviction order.
	now := time.Now()
	os.Chtimes(p, now, now)
	return b, int64(len(data)), nil
}

// Put stores a compiled benchmark at key and returns the artifact size.
// The write is atomic (temp file + rename) and triggers LRU eviction of
// older entries if it takes the store over its size cap.
func (s *Store) Put(key string, b *artc.Benchmark) (int64, error) {
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return 0, fmt.Errorf("artifact: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return 0, fmt.Errorf("artifact: %w", err)
	}
	fail := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("artifact: %w", err)
	}
	// EncodeBinary makes one Write of the whole artifact, so the encoder's
	// buffer goes to the file without a copy in between.
	if err := b.EncodeBinary(tmp); err != nil {
		return fail(err)
	}
	size, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	// The entry a rename replaces leaves the total; stat and rename under
	// mu, so two Puts of one key cannot both miss what the other wrote.
	s.mu.Lock()
	defer s.mu.Unlock()
	var replaced int64
	if info, err := os.Stat(p); err == nil {
		replaced = info.Size()
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fail(err)
	}
	if s.total += size - replaced; s.total > s.maxBytes {
		if err := s.evict(); err != nil {
			return 0, err
		}
	}
	return size, nil
}

// isEntry reports whether a cache file is a live store entry, as
// opposed to an abandoned file: a temp file a writer never renamed, or
// an entry kind only an older build knew.
func isEntry(p string) bool { return filepath.Ext(p) == ".artc" }

// entry is one cache file seen by the evictor.
type entry struct {
	path  string
	size  int64
	mtime time.Time
}

// evict walks the store: it removes abandoned files older than an hour,
// then least-recently-used entries until the store fits maxBytes, and
// sets total to what is left. Callers hold mu, which also keeps two
// walks from evicting for the same overflow.
func (s *Store) evict() error {
	s.walks++
	var entries []entry
	var total int64
	err := filepath.WalkDir(s.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent eviction
		}
		if !isEntry(p) {
			if time.Since(info.ModTime()) > time.Hour {
				os.Remove(p) // abandoned
			}
			return nil
		}
		entries = append(entries, entry{p, info.Size(), info.ModTime()})
		total += info.Size()
		return nil
	})
	if err != nil {
		return fmt.Errorf("artifact: evicting: %w", err)
	}
	if total > s.maxBytes {
		sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
		for _, e := range entries {
			if total <= s.maxBytes {
				break
			}
			if os.Remove(e.path) == nil {
				total -= e.size
			}
		}
	}
	s.total = total
	return nil
}
