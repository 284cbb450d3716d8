package artc

// The binary benchmark format: a compiled artifact that loads back into
// a ready-to-replay Benchmark without re-running parse or compile.
//
// It is the only on-disk form of a benchmark: `artc compile`, the
// artifact store and artcd all write it. Beside the trace and snapshot
// it serializes the compiler's outputs — actions with their resource
// touch sets, the interned resource table and per-resource action
// series, the reduced dependency graph, and the replayer's per-action
// touch plans — so loading is a single linear decode pass.
//
// Layout (all integers little-endian; varints are encoding/binary
// Uvarint/Varint):
//
//	[8]  magic "ARTCBIN1"
//	[4]  uint32 format version (currently 1)
//	7 ×  section: [1] id, [8] uint64 payload length, payload
//	     ids in file order: 1 meta, 2 strtab, 3 snapshot, 4 trace,
//	     5 analysis, 6 graph, 7 touchplan
//	[1]  footer id 0xFF
//	[4]  uint32 CRC-32C over every preceding byte of the artifact
//
// Every string in the artifact (paths, call names, errnos, resource
// names, warnings) lives once in the string table; the other sections
// reference strings by index. The decoder materializes the table as
// substrings of a single backing string, so a load allocates one copy
// of the distinct text no matter how many records share a path.
//
// The trailing checksum makes corruption detection a whole-artifact
// property: DecodeBinary verifies it before parsing a single section,
// so a truncated or bit-flipped artifact is rejected with the offset of
// the damage, never silently loaded into a wrong benchmark.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"rootreplay/internal/core"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// BinaryFormatVersion is the current binary artifact format version; it
// participates in content-address keys so a format change can never
// alias an old cache entry.
const BinaryFormatVersion = 1

// binMagic opens every binary benchmark artifact.
var binMagic = [8]byte{'A', 'R', 'T', 'C', 'B', 'I', 'N', '1'}

// Section ids, in required file order.
const (
	secMeta      = 1
	secStrtab    = 2
	secSnapshot  = 3
	secTrace     = 4
	secAnalysis  = 5
	secGraph     = 6
	secTouchplan = 7
	secFooter    = 0xFF
)

// Trace record field-presence bits: only non-zero fields are written,
// the rule the native trace encoding follows too.
const (
	fPath = 1 << iota
	fPath2
	fFD
	fFD2
	fOffset
	fSize
	fFlags
	fMode
	fName
	fWhence
	fAIO
	fErr
	fRet
)

// binWriter builds the artifact in one buffer, interning strings into
// the shared table as they are first seen. Sections are written where
// they will stay, each behind its id and a length patched in when it
// closes — all but the string table, complete only once every other
// section has interned its strings: strLen tracks what its payload will
// take, and EncodeBinary ends by opening a gap of that size for it.
type binWriter struct {
	buf    []byte
	str    map[string]uint64
	strs   []string
	strLen int // bytes of the strtab payload's entries, without their count
}

func (w *binWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) svarint(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *binWriter) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *binWriter) intern(s string) uint64 {
	if i, ok := w.str[s]; ok {
		return i
	}
	i := uint64(len(w.strs))
	w.str[s] = i
	w.strs = append(w.strs, s)
	w.strLen += uvarintLen(uint64(len(s))) + len(s)
	return i
}
func (w *binWriter) string(s string) { w.uvarint(w.intern(s)) }

// open starts a section and returns where its payload begins; close
// patches the payload's length into the header open wrote.
func (w *binWriter) open(id byte) int {
	w.buf = append(w.buf, id, 0, 0, 0, 0, 0, 0, 0, 0)
	return len(w.buf)
}

func (w *binWriter) close(start int) {
	binary.LittleEndian.PutUint64(w.buf[start-8:], uint64(len(w.buf)-start))
}

// uvarintLen is len(binary.AppendUvarint(nil, v)).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// modesByte packs a ModeSet into one byte.
func modesByte(m core.ModeSet) byte {
	var b byte
	if m.ProgramSeq {
		b |= 1 << 0
	}
	if m.FileSeq {
		b |= 1 << 1
	}
	if m.PathStageName {
		b |= 1 << 2
	}
	if m.FDStage {
		b |= 1 << 3
	}
	if m.FDSeq {
		b |= 1 << 4
	}
	if m.AIOStage {
		b |= 1 << 5
	}
	return b
}

func modesFromByte(b byte) (core.ModeSet, error) {
	if b&^0x3F != 0 {
		return core.ModeSet{}, fmt.Errorf("unknown mode bits %#x", b)
	}
	return core.ModeSet{
		ProgramSeq:    b&(1<<0) != 0,
		FileSeq:       b&(1<<1) != 0,
		PathStageName: b&(1<<2) != 0,
		FDStage:       b&(1<<3) != 0,
		FDSeq:         b&(1<<4) != 0,
		AIOStage:      b&(1<<5) != 0,
	}, nil
}

// EncodeBinary writes the benchmark as a binary compiled artifact. The
// benchmark must have been produced by Compile (or DecodeBinary): the
// analysis and graph are serialized, not rebuilt, so a hand-assembled
// benchmark without them cannot be encoded.
func (b *Benchmark) EncodeBinary(w io.Writer) error {
	if b.Analysis == nil || b.Graph == nil || b.Snapshot == nil || b.Trace == nil {
		return fmt.Errorf("artc: EncodeBinary needs a compiled benchmark (analysis, graph, snapshot, trace)")
	}
	an := b.Analysis
	if len(an.SeriesOff) != len(an.Resources)+1 {
		return fmt.Errorf("artc: analysis has %d series offsets for %d resources", len(an.SeriesOff), len(an.Resources))
	}
	// Totals up front, for the decoder's slab allocations and for sizing
	// the buffer here.
	totalSeries := uint64(an.SeriesOff[len(an.Resources)])
	var totalTouches uint64
	for i := range an.Actions {
		totalTouches += uint64(an.Actions[i].TouchLen)
	}
	// The whole artifact is built in one buffer, allocated once (a payload
	// grown from nil by append allocates several times what it keeps).
	// The bytes per element are a little over what the Magritte,
	// components and pipeline corpora take, the slack covering their
	// string tables; a denser artifact grows the buffer by append.
	nRec := len(b.Trace.Records)
	bw := &binWriter{
		str: make(map[string]uint64),
		buf: make([]byte, 0, 256+16*len(b.Snapshot.Entries)+23*nRec+
			3*int(totalTouches)+2*int(totalSeries)+7*len(an.Resources)+12*len(b.Graph.Edges)),
	}
	bw.buf = append(bw.buf, binMagic[:]...)
	bw.buf = binary.LittleEndian.AppendUint32(bw.buf, BinaryFormatVersion)

	// meta: platform + modes. Interned first so the platform is string 0.
	sec := bw.open(secMeta)
	bw.string(b.Platform)
	bw.byte(modesByte(b.Modes))
	bw.close(sec)
	// The string table is the second section of the file and the last to
	// be written: every later section slides down to make room for it.
	strtabAt := len(bw.buf)

	// snapshot.
	sec = bw.open(secSnapshot)
	bw.uvarint(uint64(len(b.Snapshot.Entries)))
	for i := range b.Snapshot.Entries {
		e := &b.Snapshot.Entries[i]
		switch e.Kind {
		case snapshot.KindDir:
			bw.byte(0)
			bw.string(e.Path)
			bw.uvarint(uint64(e.Mode))
		case snapshot.KindFile:
			bw.byte(1)
			bw.string(e.Path)
			bw.svarint(e.Size)
			bw.uvarint(uint64(e.Mode))
		case snapshot.KindSymlink:
			bw.byte(2)
			bw.string(e.Path)
			bw.string(e.Target)
		case snapshot.KindSpecial:
			bw.byte(3)
			bw.string(e.Path)
			bw.uvarint(uint64(e.Kind2))
		default:
			return fmt.Errorf("artc: snapshot entry %d has unknown kind %q", i, e.Kind)
		}
		names := make([]string, 0, len(e.Xattrs))
		for n := range e.Xattrs {
			names = append(names, n)
		}
		sort.Strings(names)
		bw.uvarint(uint64(len(names)))
		for _, n := range names {
			bw.string(n)
			bw.svarint(e.Xattrs[n])
		}
	}
	bw.close(sec)

	// trace records.
	sec = bw.open(secTrace)
	bw.uvarint(uint64(len(b.Trace.Records)))
	// Timestamps are delta-coded: Start against the previous record's
	// Start, End against the record's own Start (the call latency). The
	// deltas are microsecond-scale where the absolutes are second-scale,
	// so they fit 1-3 varint bytes instead of 5-6.
	var prevStart int64
	for _, r := range b.Trace.Records {
		bw.uvarint(uint64(r.TID))
		bw.string(r.Call)
		var mask uint64
		if r.Path != "" {
			mask |= fPath
		}
		if r.Path2 != "" {
			mask |= fPath2
		}
		if r.FD != 0 {
			mask |= fFD
		}
		if r.FD2 != 0 {
			mask |= fFD2
		}
		if r.Offset != 0 {
			mask |= fOffset
		}
		if r.Size != 0 {
			mask |= fSize
		}
		if r.Flags != 0 {
			mask |= fFlags
		}
		if r.Mode != 0 {
			mask |= fMode
		}
		if r.Name != "" {
			mask |= fName
		}
		if r.Whence != 0 {
			mask |= fWhence
		}
		if r.AIO != 0 {
			mask |= fAIO
		}
		if r.Err != "" {
			mask |= fErr
		}
		if r.Ret != 0 {
			mask |= fRet
		}
		bw.uvarint(mask)
		if mask&fPath != 0 {
			bw.string(r.Path)
		}
		if mask&fPath2 != 0 {
			bw.string(r.Path2)
		}
		if mask&fFD != 0 {
			bw.svarint(r.FD)
		}
		if mask&fFD2 != 0 {
			bw.svarint(r.FD2)
		}
		if mask&fOffset != 0 {
			bw.svarint(r.Offset)
		}
		if mask&fSize != 0 {
			bw.svarint(r.Size)
		}
		if mask&fFlags != 0 {
			bw.uvarint(uint64(r.Flags))
		}
		if mask&fMode != 0 {
			bw.uvarint(uint64(r.Mode))
		}
		if mask&fName != 0 {
			bw.string(r.Name)
		}
		if mask&fWhence != 0 {
			bw.svarint(int64(r.Whence))
		}
		if mask&fAIO != 0 {
			bw.svarint(r.AIO)
		}
		if mask&fErr != 0 {
			bw.string(r.Err)
		}
		if mask&fRet != 0 {
			bw.svarint(r.Ret)
		}
		bw.svarint(int64(r.Start) - prevStart)
		bw.svarint(int64(r.End) - int64(r.Start))
		prevStart = int64(r.Start)
	}
	bw.close(sec)

	// analysis: resource table, action series, actions, path
	// generations, warnings.
	sec = bw.open(secAnalysis)
	bw.uvarint(uint64(len(an.Resources)))
	for _, res := range an.Resources {
		bw.byte(byte(res.Kind))
		bw.string(res.Name)
		bw.uvarint(uint64(res.Gen))
	}
	bw.uvarint(totalSeries)
	for k := range an.Resources {
		s := an.Series(k)
		bw.uvarint(uint64(len(s)))
		prev := int32(0)
		for j, idx := range s {
			if j == 0 {
				bw.uvarint(uint64(idx))
			} else {
				bw.uvarint(uint64(idx - prev))
			}
			prev = idx
		}
	}
	bw.uvarint(uint64(len(an.Actions)))
	bw.uvarint(totalTouches)
	path := func(p int32) string {
		if p < 0 {
			return ""
		}
		return an.Paths[p]
	}
	for i := range an.Actions {
		act := &an.Actions[i]
		bw.string(path(act.CanonPath))
		bw.string(path(act.CanonPath2))
		bw.uvarint(uint64(act.TouchLen))
		for _, t := range an.Touches(i) {
			if t.Idx < 0 || int(t.Idx) >= len(an.Resources) || an.Resources[t.Idx].Kind != t.Kind {
				return fmt.Errorf("artc: action %d touches a %v as resource %d, which the analyzer's %d-entry resource table does not hold (benchmark not produced by Compile?)", i, t.Kind, t.Idx, len(an.Resources))
			}
			bw.uvarint(uint64(t.Idx))
			bw.byte(byte(t.Role))
		}
		if act.FDHint < 0 {
			bw.byte(0)
		} else {
			if int(act.FDHint) >= len(an.Resources) {
				return fmt.Errorf("artc: action %d hints at resource %d of %d", i, act.FDHint, len(an.Resources))
			}
			hint := &an.Resources[act.FDHint]
			bw.byte(1)
			bw.byte(byte(hint.Kind))
			bw.string(hint.Name)
			bw.uvarint(uint64(hint.Gen))
		}
	}
	pgNames := make([]string, 0, len(an.PathGens))
	for n := range an.PathGens {
		pgNames = append(pgNames, n)
	}
	sort.Strings(pgNames)
	bw.uvarint(uint64(len(pgNames)))
	for _, n := range pgNames {
		bw.string(n)
		gens := an.PathGens[n]
		bw.uvarint(uint64(len(gens)))
		for _, g := range gens {
			bw.uvarint(uint64(g))
		}
	}
	bw.uvarint(uint64(len(an.Warnings)))
	for _, wmsg := range an.Warnings {
		bw.string(wmsg)
	}
	bw.close(sec)

	// graph: the compile-time reduced graph. The adjacency indexes are
	// rebuilt from the edge list on load.
	sec = bw.open(secGraph)
	g := b.Graph
	bw.uvarint(uint64(g.N))
	bw.uvarint(uint64(g.ReducedEdges))
	bw.uvarint(uint64(len(g.Edges)))
	for _, e := range g.Edges {
		bw.uvarint(uint64(e.From))
		bw.uvarint(uint64(e.To))
		bw.byte(byte(e.Kind))
		bw.byte(byte(e.Res.Kind))
		bw.string(e.Res.Name)
		bw.uvarint(uint64(e.Res.Gen))
	}
	bw.close(sec)

	// touchplan: the replayer's per-action FD/AIO plan.
	sec = bw.open(secTouchplan)
	plan := b.touches
	if plan == nil {
		plan = planTouches(an)
	}
	bw.uvarint(uint64(len(plan)))
	for _, p := range plan {
		bw.svarint(int64(p.fdUse))
		bw.svarint(int64(p.fdCreate))
		bw.svarint(int64(p.aioUse))
		bw.svarint(int64(p.aioCreate))
	}
	bw.close(sec)

	// strtab, complete now that every section has interned its strings:
	// open the gap, write the section into it, then the footer and the
	// whole-artifact checksum.
	payload := uvarintLen(uint64(len(bw.strs))) + bw.strLen
	gap := 1 + 8 + payload
	end := len(bw.buf)
	bw.buf = slices.Grow(bw.buf, gap+5)[:end+gap]
	copy(bw.buf[strtabAt+gap:], bw.buf[strtabAt:end])
	st := append(bw.buf[:strtabAt], secStrtab)
	st = binary.LittleEndian.AppendUint64(st, uint64(payload))
	st = binary.AppendUvarint(st, uint64(len(bw.strs)))
	for _, s := range bw.strs {
		st = binary.AppendUvarint(st, uint64(len(s)))
		st = append(st, s...)
	}
	if len(st) != strtabAt+gap {
		panic("artc: string table is not the size interning counted")
	}
	out := append(bw.buf, secFooter)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	_, err := w.Write(out)
	return err
}

// binReader walks one section payload with absolute-offset errors.
type binReader struct {
	data []byte // the section payload
	off  int    // within data
	base int    // file offset of data[0], for error messages
	strs []string
	name string // section name, for error messages
}

func (r *binReader) errAt(format string, args ...any) error {
	return fmt.Errorf("artc: binary artifact: %s section, offset %d: %s",
		r.name, r.base+r.off, fmt.Sprintf(format, args...))
}

// uvarint has an inlinable fast path for the dominant 1-byte case; the
// record-decode loop reads several varints per record.
func (r *binReader) uvarint() (uint64, error) {
	if r.off < len(r.data) {
		if c := r.data[r.off]; c < 0x80 {
			r.off++
			return uint64(c), nil
		}
	}
	return r.uvarintSlow()
}

func (r *binReader) uvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, r.errAt("bad varint")
	}
	r.off += n
	return v, nil
}

func (r *binReader) svarint() (int64, error) {
	if r.off < len(r.data) {
		if c := r.data[r.off]; c < 0x80 {
			r.off++
			return int64(c>>1) ^ -int64(c&1), nil
		}
	}
	return r.svarintSlow()
}

func (r *binReader) svarintSlow() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, r.errAt("bad varint")
	}
	r.off += n
	return v, nil
}

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, r.errAt("unexpected end of section")
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// count reads an element count and sanity-bounds it: each element needs
// at least min bytes, so a count claiming more elements than the
// remaining payload could hold is corruption, not a huge allocation.
func (r *binReader) count(min int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(len(r.data)-r.off)/uint64(min)+1 {
		return 0, r.errAt("count %d exceeds section size", v)
	}
	return int(v), nil
}

func (r *binReader) string() (string, error) {
	i, err := r.strIndex()
	if err != nil {
		return "", err
	}
	return r.strs[i], nil
}

// strIndex reads a string-table index.
func (r *binReader) strIndex() (uint64, error) {
	i, err := r.uvarint()
	if err == nil && i >= uint64(len(r.strs)) {
		err = r.errAt("string index %d out of range (table has %d)", i, len(r.strs))
	}
	return i, err
}

// resource reads a resource identity: kind, name and generation. what and
// i name it in errors.
func (r *binReader) resource(what string, i int) (core.ResourceID, error) {
	var res core.ResourceID
	kb, err := r.byte()
	if err != nil {
		return res, err
	}
	if kb > byte(core.KAIO) {
		return res, r.errAt("%s %d has unknown kind %d", what, i, kb)
	}
	res.Kind = core.Kind(kb)
	if res.Name, err = r.string(); err != nil {
		return res, err
	}
	gen, err := r.uvarint()
	res.Gen = int(gen)
	return res, err
}

func (r *binReader) done() error {
	if r.off != len(r.data) {
		return r.errAt("%d trailing bytes in section", len(r.data)-r.off)
	}
	return nil
}

// DecodeBinaryBytes loads a binary benchmark artifact. The whole-
// artifact checksum is verified before any section is parsed, so a
// truncated or bit-flipped artifact fails here with the offset of the
// damage rather than decoding into a wrong benchmark. The returned
// benchmark shares no memory with data.
func DecodeBinaryBytes(data []byte) (*Benchmark, error) {
	const headerLen = 8 + 4
	const footerLen = 1 + 4
	// Older builds of `artc compile` wrote a text format by default; the
	// owner of such a file is told what to do with it.
	if bytes.HasPrefix(data, []byte("#artc-benchmark")) {
		return nil, fmt.Errorf("artc: text benchmark files are no longer read; recompile from the trace")
	}
	if len(data) < headerLen+footerLen {
		return nil, fmt.Errorf("artc: truncated binary artifact: %d bytes", len(data))
	}
	if !bytes.HasPrefix(data, binMagic[:]) {
		return nil, fmt.Errorf("artc: not a binary benchmark artifact")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != BinaryFormatVersion {
		return nil, fmt.Errorf("artc: binary artifact format version %d (this build reads %d)", v, BinaryFormatVersion)
	}
	if data[len(data)-footerLen] != secFooter {
		return nil, fmt.Errorf("artc: truncated binary artifact: missing footer at offset %d", len(data)-footerLen)
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], crcTable); got != want {
		return nil, fmt.Errorf("artc: binary artifact checksum mismatch at offset %d: footer says crc32c=%08x, content is %08x",
			len(data)-4, want, got)
	}

	// Section walk.
	wantIDs := []struct {
		id   byte
		name string
	}{
		{secMeta, "meta"},
		{secStrtab, "strtab"},
		{secSnapshot, "snapshot"},
		{secTrace, "trace"},
		{secAnalysis, "analysis"},
		{secGraph, "graph"},
		{secTouchplan, "touchplan"},
	}
	type section struct {
		name    string
		base    int
		payload []byte
	}
	secs := make([]section, 0, len(wantIDs))
	off := headerLen
	end := len(data) - footerLen
	for _, w := range wantIDs {
		if off+9 > end {
			return nil, fmt.Errorf("artc: binary artifact: truncated at offset %d: missing %s section", off, w.name)
		}
		if data[off] != w.id {
			return nil, fmt.Errorf("artc: binary artifact: offset %d: section id %d, want %d (%s)", off, data[off], w.id, w.name)
		}
		n := binary.LittleEndian.Uint64(data[off+1:])
		if n > uint64(end-(off+9)) {
			return nil, fmt.Errorf("artc: binary artifact: offset %d: %s section claims %d bytes, only %d remain",
				off+1, w.name, n, end-(off+9))
		}
		secs = append(secs, section{w.name, off + 9, data[off+9 : off+9+int(n)]})
		off += 9 + int(n)
	}
	if off != end {
		return nil, fmt.Errorf("artc: binary artifact: %d trailing bytes at offset %d", end-off, off)
	}
	rd := func(i int) *binReader {
		return &binReader{data: secs[i].payload, base: secs[i].base, name: secs[i].name}
	}

	// strtab first (meta references it): one backing string, substring
	// entries.
	sr := rd(1)
	nStr, err := sr.count(1)
	if err != nil {
		return nil, err
	}
	backing := string(sr.data[sr.off:])
	backOff := sr.off
	strs := make([]string, 0, nStr)
	for i := 0; i < nStr; i++ {
		n, err := sr.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(sr.data)-sr.off) {
			return nil, sr.errAt("string %d claims %d bytes, only %d remain", i, n, len(sr.data)-sr.off)
		}
		start := sr.off - backOff
		strs = append(strs, backing[start:start+int(n)])
		sr.off += int(n)
	}
	if err := sr.done(); err != nil {
		return nil, err
	}

	// meta.
	mr := rd(0)
	mr.strs = strs
	platform, err := mr.string()
	if err != nil {
		return nil, err
	}
	mb, err := mr.byte()
	if err != nil {
		return nil, err
	}
	modes, err := modesFromByte(mb)
	if err != nil {
		return nil, mr.errAt("%v", err)
	}
	if err := mr.done(); err != nil {
		return nil, err
	}

	// Peek the record count from the trace section header so the
	// analysis, graph, and touch-plan sections can validate their
	// cross-references while the trace itself is still decoding.
	nRecPeek, pn := binary.Uvarint(secs[3].payload)
	if pn <= 0 || nRecPeek > uint64(len(secs[3].payload))/4+1 {
		return nil, fmt.Errorf("artc: binary artifact: trace section, offset %d: bad record count", secs[3].base)
	}
	nRec := int(nRecPeek)

	// The sections are independent once the string table is up: decode
	// them concurrently when there are spare CPUs, inline otherwise
	// (goroutine handoff only costs on a single-CPU host). The
	// whole-artifact checksum has already passed, so an error past this
	// point is a format violation, not silent corruption.
	rds := func(i int) *binReader {
		r := rd(i)
		r.strs = strs
		return r
	}
	var (
		snap   *snapshot.Snapshot
		tr     *trace.Trace
		an     *core.Analysis
		g      *core.Graph
		plan   []actionTouches
		secErr [4]error
	)
	parts := [4]func(){
		func() { snap, secErr[0] = decodeSnapshotSec(rds(2)) },
		func() { tr, secErr[1] = decodeTraceSec(rds(3), platform) },
		func() { an, secErr[2] = decodeAnalysisSec(rds(4), nRec) },
		func() {
			if g, secErr[3] = decodeGraphSec(rds(5), nRec); secErr[3] != nil {
				return
			}
			plan, secErr[3] = decodePlanSec(rds(6), nRec)
		},
	}
	if runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		wg.Add(len(parts))
		for _, part := range parts {
			go func() { defer wg.Done(); part() }()
		}
		wg.Wait()
	} else {
		for _, part := range parts {
			part()
		}
	}
	for _, err := range secErr {
		if err != nil {
			return nil, err
		}
	}
	// The analysis decoded without the trace.
	an.Trace = tr

	return &Benchmark{
		Platform: platform,
		Modes:    modes,
		Trace:    tr,
		Snapshot: snap,
		Analysis: an,
		Graph:    g,
		touches:  plan,
	}, nil
}

// decodeSnapshotSec parses the snapshot section.
func decodeSnapshotSec(snr *binReader) (*snapshot.Snapshot, error) {
	nEnt, err := snr.count(2)
	if err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{Entries: make([]snapshot.Entry, 0, nEnt)}
	for i := 0; i < nEnt; i++ {
		kind, err := snr.byte()
		if err != nil {
			return nil, err
		}
		var e snapshot.Entry
		if e.Path, err = snr.string(); err != nil {
			return nil, err
		}
		switch kind {
		case 0:
			e.Kind = snapshot.KindDir
			m, err := snr.uvarint()
			if err != nil {
				return nil, err
			}
			e.Mode = uint32(m)
		case 1:
			e.Kind = snapshot.KindFile
			if e.Size, err = snr.svarint(); err != nil {
				return nil, err
			}
			m, err := snr.uvarint()
			if err != nil {
				return nil, err
			}
			e.Mode = uint32(m)
		case 2:
			e.Kind = snapshot.KindSymlink
			if e.Target, err = snr.string(); err != nil {
				return nil, err
			}
		case 3:
			e.Kind = snapshot.KindSpecial
			k2, err := snr.uvarint()
			if err != nil {
				return nil, err
			}
			e.Kind2 = stack.SpecialKind(k2)
		default:
			return nil, snr.errAt("unknown snapshot entry kind %d", kind)
		}
		nx, err := snr.count(2)
		if err != nil {
			return nil, err
		}
		if nx > 0 {
			e.Xattrs = make(map[string]int64, nx)
			for j := 0; j < nx; j++ {
				name, err := snr.string()
				if err != nil {
					return nil, err
				}
				size, err := snr.svarint()
				if err != nil {
					return nil, err
				}
				e.Xattrs[name] = size
			}
		}
		snap.Entries = append(snap.Entries, e)
	}
	if err := snr.done(); err != nil {
		return nil, err
	}
	return snap, nil
}

// decodeTraceSec parses the trace section into a contiguous record
// slab.
func decodeTraceSec(tr2 *binReader, platform string) (*trace.Trace, error) {
	nRec, err := tr2.count(4)
	if err != nil {
		return nil, err
	}
	recSlab := make([]trace.Record, nRec)
	var prevStart int64
	records := make([]*trace.Record, nRec)
	for i := 0; i < nRec; i++ {
		r := &recSlab[i]
		records[i] = r
		r.Seq = int64(i)
		tid, err := tr2.uvarint()
		if err != nil {
			return nil, err
		}
		r.TID = int(tid)
		if r.Call, err = tr2.string(); err != nil {
			return nil, err
		}
		mask, err := tr2.uvarint()
		if err != nil {
			return nil, err
		}
		if mask >= fRet<<1 {
			return nil, tr2.errAt("record %d has unknown field bits %#x", i, mask)
		}
		if mask&fPath != 0 {
			if r.Path, err = tr2.string(); err != nil {
				return nil, err
			}
		}
		if mask&fPath2 != 0 {
			if r.Path2, err = tr2.string(); err != nil {
				return nil, err
			}
		}
		if mask&fFD != 0 {
			if r.FD, err = tr2.svarint(); err != nil {
				return nil, err
			}
		}
		if mask&fFD2 != 0 {
			if r.FD2, err = tr2.svarint(); err != nil {
				return nil, err
			}
		}
		if mask&fOffset != 0 {
			if r.Offset, err = tr2.svarint(); err != nil {
				return nil, err
			}
		}
		if mask&fSize != 0 {
			if r.Size, err = tr2.svarint(); err != nil {
				return nil, err
			}
		}
		if mask&fFlags != 0 {
			fl, err := tr2.uvarint()
			if err != nil {
				return nil, err
			}
			r.Flags = trace.OpenFlag(fl)
		}
		if mask&fMode != 0 {
			m, err := tr2.uvarint()
			if err != nil {
				return nil, err
			}
			r.Mode = uint32(m)
		}
		if mask&fName != 0 {
			if r.Name, err = tr2.string(); err != nil {
				return nil, err
			}
		}
		if mask&fWhence != 0 {
			wv, err := tr2.svarint()
			if err != nil {
				return nil, err
			}
			r.Whence = int(wv)
		}
		if mask&fAIO != 0 {
			if r.AIO, err = tr2.svarint(); err != nil {
				return nil, err
			}
		}
		if mask&fErr != 0 {
			if r.Err, err = tr2.string(); err != nil {
				return nil, err
			}
		}
		if mask&fRet != 0 {
			if r.Ret, err = tr2.svarint(); err != nil {
				return nil, err
			}
		}
		dStart, err := tr2.svarint()
		if err != nil {
			return nil, err
		}
		dEnd, err := tr2.svarint()
		if err != nil {
			return nil, err
		}
		start := prevStart + dStart
		prevStart = start
		r.Start, r.End = time.Duration(start), time.Duration(start+dEnd)
	}
	if err := tr2.done(); err != nil {
		return nil, err
	}
	return &trace.Trace{Platform: platform, Records: records}, nil
}

// decodeAnalysisSec parses the analysis section. The returned
// analysis has a nil Trace; the caller sets the concurrently-decoded
// one.
func decodeAnalysisSec(ar *binReader, nRec int) (*core.Analysis, error) {
	nRes, err := ar.count(3)
	if err != nil {
		return nil, err
	}
	resources := make([]core.ResourceID, nRes)
	for i := 0; i < nRes; i++ {
		if resources[i], err = ar.resource("resource", i); err != nil {
			return nil, err
		}
	}
	totalSeries, err := ar.count(1)
	if err != nil {
		return nil, err
	}
	seriesOff := make([]int32, nRes+1)
	seriesIdx := make([]int32, 0, totalSeries)
	for i := 0; i < nRes; i++ {
		n, err := ar.count(1)
		if err != nil {
			return nil, err
		}
		if len(seriesIdx)+n > totalSeries {
			return nil, ar.errAt("resource %d: series overflow the declared total %d", i, totalSeries)
		}
		prev := 0
		for j := 0; j < n; j++ {
			d, err := ar.uvarint()
			if err != nil {
				return nil, err
			}
			if j == 0 {
				prev = int(d)
			} else {
				if d == 0 {
					return nil, ar.errAt("resource %d series not strictly increasing", i)
				}
				prev += int(d)
			}
			if prev >= nRec {
				return nil, ar.errAt("resource %d series index %d out of range (%d actions)", i, prev, nRec)
			}
			seriesIdx = append(seriesIdx, int32(prev))
		}
		seriesOff[i+1] = int32(len(seriesIdx))
	}
	nAct, err := ar.count(4)
	if err != nil {
		return nil, err
	}
	if nAct != nRec {
		return nil, ar.errAt("%d actions for %d records", nAct, nRec)
	}
	totalTouches, err := ar.count(2)
	if err != nil {
		return nil, err
	}
	actions := make([]core.Action, nAct)
	touchSlab := make([]core.Touch, 0, totalTouches)
	// pathAt maps a string-table index to its Paths index + 1 (0: unseen),
	// in first-use order as the analyzer numbers them; fds, built on the
	// first hint, finds a hint's descriptor by identity.
	var paths []string
	pathAt := make([]int32, len(ar.strs))
	readPath := func() (int32, error) {
		si, err := ar.strIndex()
		if err != nil || ar.strs[si] == "" {
			return -1, err
		}
		if pathAt[si] == 0 {
			paths = append(paths, ar.strs[si])
			pathAt[si] = int32(len(paths))
		}
		return pathAt[si] - 1, nil
	}
	var fds map[core.ResourceID]int32
	for i := 0; i < nAct; i++ {
		act := &actions[i]
		if act.CanonPath, err = readPath(); err != nil {
			return nil, err
		}
		if act.CanonPath2, err = readPath(); err != nil {
			return nil, err
		}
		nt, err := ar.count(2)
		if err != nil {
			return nil, err
		}
		if len(touchSlab)+nt > totalTouches {
			return nil, ar.errAt("action %d: touch lists overflow the declared total %d", i, totalTouches)
		}
		start := len(touchSlab)
		for j := 0; j < nt; j++ {
			ri, err := ar.uvarint()
			if err != nil {
				return nil, err
			}
			if ri >= uint64(nRes) {
				return nil, ar.errAt("action %d touch %d: resource index %d out of range", i, j, ri)
			}
			role, err := ar.byte()
			if err != nil {
				return nil, err
			}
			if role > byte(core.RoleDelete) {
				return nil, ar.errAt("action %d touch %d: unknown role %d", i, j, role)
			}
			touchSlab = append(touchSlab, core.Touch{Idx: int32(ri), Kind: resources[ri].Kind, Role: core.Role(role)})
		}
		act.TouchOff, act.TouchLen = int32(start), int32(nt)
		hint, err := ar.byte()
		if err != nil {
			return nil, err
		}
		act.FDHint = -1
		switch hint {
		case 0:
		case 1:
			res, err := ar.resource("fd hint of action", i)
			if err != nil {
				return nil, err
			}
			if fds == nil {
				fds = make(map[core.ResourceID]int32)
				for k, r := range resources {
					if r.Kind == core.KFD {
						fds[r] = int32(k)
					}
				}
			}
			var ok bool
			if act.FDHint, ok = fds[res]; !ok {
				return nil, ar.errAt("action %d fd hint %v names no descriptor in the resource table", i, res)
			}
		default:
			return nil, ar.errAt("action %d has unknown fd-hint tag %d", i, hint)
		}
	}
	nPG, err := ar.count(3)
	if err != nil {
		return nil, err
	}
	pathGens := make(map[string][]int, nPG)
	for i := 0; i < nPG; i++ {
		name, err := ar.string()
		if err != nil {
			return nil, err
		}
		ng, err := ar.count(1)
		if err != nil {
			return nil, err
		}
		var gens []int
		for j := 0; j < ng; j++ {
			g, err := ar.uvarint()
			if err != nil {
				return nil, err
			}
			gens = append(gens, int(g))
		}
		pathGens[name] = gens
	}
	nWarn, err := ar.count(1)
	if err != nil {
		return nil, err
	}
	var warnings []string
	for i := 0; i < nWarn; i++ {
		wmsg, err := ar.string()
		if err != nil {
			return nil, err
		}
		warnings = append(warnings, wmsg)
	}
	if err := ar.done(); err != nil {
		return nil, err
	}
	return &core.Analysis{
		Actions:   actions,
		Paths:     paths,
		TouchSlab: touchSlab,
		Resources: resources,
		SeriesOff: seriesOff,
		SeriesIdx: seriesIdx,
		PathGens:  pathGens,
		Warnings:  warnings,
	}, nil
}

// decodeGraphSec parses the graph section and rebuilds the adjacency
// indexes.
func decodeGraphSec(gr *binReader, nRec int) (*core.Graph, error) {
	gn, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	if gn != uint64(nRec) {
		return nil, gr.errAt("graph is over %d actions, trace has %d", gn, nRec)
	}
	reduced, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	nEdges, err := gr.count(4)
	if err != nil {
		return nil, err
	}
	edges := make([]core.Edge, nEdges)
	for i := 0; i < nEdges; i++ {
		e := &edges[i]
		from, err := gr.uvarint()
		if err != nil {
			return nil, err
		}
		to, err := gr.uvarint()
		if err != nil {
			return nil, err
		}
		if from >= gn || to >= gn {
			return nil, gr.errAt("edge %d (%d->%d) out of range (%d actions)", i, from, to, gn)
		}
		e.From, e.To = int(from), int(to)
		kb, err := gr.byte()
		if err != nil {
			return nil, err
		}
		if kb > byte(core.WaitIssue) {
			return nil, gr.errAt("edge %d has unknown kind %d", i, kb)
		}
		e.Kind = core.EdgeKind(kb)
		if e.Res, err = gr.resource("resource of edge", i); err != nil {
			return nil, err
		}
	}
	if err := gr.done(); err != nil {
		return nil, err
	}
	g := core.NewGraph(nRec, edges)
	g.ReducedEdges = int(reduced)
	return g, nil
}

// decodePlanSec parses the replayer touch-plan section.
func decodePlanSec(pr *binReader, nRec int) ([]actionTouches, error) {
	nPlan, err := pr.count(4)
	if err != nil {
		return nil, err
	}
	if nPlan != nRec {
		return nil, pr.errAt("%d touch plans for %d records", nPlan, nRec)
	}
	plan := make([]actionTouches, nPlan)
	for i := 0; i < nPlan; i++ {
		var v [4]int64
		for j := range v {
			if v[j], err = pr.svarint(); err != nil {
				return nil, err
			}
			if v[j] < math.MinInt16 || v[j] > math.MaxInt16 {
				return nil, pr.errAt("touch plan %d field %d out of int16 range", i, j)
			}
		}
		plan[i] = actionTouches{
			fdUse: int16(v[0]), fdCreate: int16(v[1]),
			aioUse: int16(v[2]), aioCreate: int16(v[3]),
		}
	}
	if err := pr.done(); err != nil {
		return nil, err
	}
	return plan, nil
}

// DecodeBinary reads a binary benchmark artifact from r.
func DecodeBinary(r io.Reader) (*Benchmark, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBinaryBytes(data)
}
