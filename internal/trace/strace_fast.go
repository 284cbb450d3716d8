package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// This file is the zero-copy strace lexer behind ParseStrace. The
// ingredients, and the aliasing contract between them:
//
//   - Lines are lexed as sub-slices of the bufio.Scanner's reusable
//     buffer, viewed as strings via bytesView without copying. Every
//     view dies when the line is done; the only strings that outlive a
//     line are (a) ParseError.Text, which is cloned, and (b) record
//     strings, which pass through the Intern table — the copy-out
//     point — into Trace.Strs, so no string a Record names references
//     the scanner buffer.
//   - Records are built in place at the end of Trace.Records, one
//     slab of values; a call the model skips is truncated off again.
//   - `unfinished ... resumed` stitching uses a small per-TID map of
//     open calls whose text buffers are pooled and reused.
//
// The scalar parsers (parseEpochNS, strconv.ParseInt/ParseFloat over
// views) are shared with or copied verbatim from the reference parser;
// fuzz_test.go holds the fast path to the reference as oracle.

// bytesView returns a string view of b without copying. The view
// aliases b and must not be retained past b's lifetime — see the
// contract above.
func bytesView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// atoiExact mirrors strconv.Atoi's accept set (optional sign, decimal
// digits, full int range) without allocating a NumError on failure —
// the header probe runs it on every line of a no-pid trace, where the
// first token is a timestamp and the failure path is the common one.
func atoiExact(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	neg := false
	i := 0
	switch s[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(s) {
		return 0, false
	}
	// Accumulate negative (MinInt has no positive counterpart).
	const cutoff = math.MinInt / 10
	n := 0
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		if n < cutoff {
			return 0, false
		}
		n = n*10 - int(c)
		if n > 0 {
			return 0, false
		}
	}
	if !neg {
		if n == math.MinInt {
			return 0, false
		}
		n = -n
	}
	return n, true
}

// parseInt64Exact mirrors strconv.ParseInt(s, 10, 64) — optional sign,
// decimal digits, full int64 range, no underscores — without the
// NumError allocation or the call overhead. Used for the timestamp
// fields, which dominate the header's cost.
func parseInt64Exact(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	if c := s[0]; c != '-' && c != '+' && len(s) <= 18 {
		// ≤ 18 digits cannot overflow int64: drop the cutoff checks
		// and batch 8 digits per step. This is every timestamp field.
		var n int64
		i := 0
		for ; i+8 <= len(s); i += 8 {
			d, ok := swarParse8(le64(s, i))
			if !ok {
				return 0, false
			}
			n = n*100000000 + int64(d)
		}
		for ; i < len(s); i++ {
			c := s[i] - '0'
			if c > 9 {
				return 0, false
			}
			n = n*10 + int64(c)
		}
		return n, true
	}
	neg := false
	i := 0
	switch s[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(s) {
		return 0, false
	}
	// Accumulate negative (MinInt64 has no positive counterpart).
	const cutoff = math.MinInt64 / 10
	var n int64
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		if n < cutoff {
			return 0, false
		}
		n = n*10 - int64(c)
		if n > 0 {
			return 0, false
		}
	}
	if !neg {
		if n == math.MinInt64 {
			return 0, false
		}
		n = -n
	}
	return n, true
}

// le64 loads 8 bytes of s at offset i as a little-endian word. The
// caller guarantees i+8 <= len(s).
func le64(s string, i int) uint64 {
	b := unsafe.Slice(unsafe.StringData(s), len(s))
	return binary.LittleEndian.Uint64(b[i : i+8])
}

// swarParse8 converts a little-endian word of 8 ASCII digits to its
// numeric value (s[0] most significant), rejecting any non-digit byte:
// the high-nibble test pins every byte to 0x30..0x3F, and the +6 carry
// test rejects 0x3A..0x3F. The multiply-shift cascade then combines
// adjacent digits pairwise (×10, ×100, ×10000).
func swarParse8(w uint64) (uint64, bool) {
	if w&0xF0F0F0F0F0F0F0F0 != 0x3030303030303030 {
		return 0, false
	}
	d := w & 0x0F0F0F0F0F0F0F0F
	if (d+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 != 0 {
		return 0, false
	}
	d = (d * (1 + 10<<8)) >> 8 & 0x00FF00FF00FF00FF
	d = (d * (1 + 100<<16)) >> 16 & 0x0000FFFF0000FFFF
	d = (d * (1 + 10000<<32)) >> 32
	return d, true
}

// parseDigitsU64 converts an all-digit string (caller bounds the
// length so the value fits) to its numeric value.
func parseDigitsU64(s string) (uint64, bool) {
	var n uint64
	i := 0
	for ; i+8 <= len(s); i += 8 {
		d, ok := swarParse8(le64(s, i))
		if !ok {
			return 0, false
		}
		n = n*100000000 + d
	}
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + uint64(c)
	}
	return n, true
}

// pow10u holds 10^0..10^15 for scaling the integer part of a duration
// by its fraction width.
var pow10u = [16]uint64{
	1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
	1000000000, 10000000000, 100000000000, 1000000000000,
	10000000000000, 100000000000000, 1000000000000000,
}

// parseEpochNSFast is parseEpochNS with the strconv calls replaced by
// parseInt64Exact. Same accept set, same error text, same overflow
// behaviour (ParseInt range errors become "bad timestamp").
func parseEpochNSFast(s string) (int64, error) {
	// Shape-specialized path for the dominant "SSSSSSSSSS.NNNNNNNNN"
	// epoch form: two SWAR blocks and three scalar digits, no cut. Any
	// validation failure falls through to the general path, and when
	// all 19 digit positions really are digits the first '.' is at
	// index 10, so the general path's cut would split identically.
	if len(s) == 20 && s[10] == '.' {
		hi, ok1 := swarParse8(le64(s, 0))
		lo, ok2 := swarParse8(le64(s, 11))
		d8, d9, d19 := s[8]-'0', s[9]-'0', s[19]-'0'
		if ok1 && ok2 && d8 <= 9 && d9 <= 9 && d19 <= 9 {
			sec := int64(hi*100 + uint64(d8)*10 + uint64(d9))
			frac := int64(lo*10 + uint64(d19))
			return sec*int64(time.Second) + frac, nil
		}
	}
	secS, fracS, _ := cutByteShort(s, '.')
	secs, ok := parseInt64Exact(secS)
	if !ok {
		return 0, fmt.Errorf("bad timestamp %q", s)
	}
	ns := secs * int64(time.Second)
	if fracS != "" {
		if len(fracS) > 9 {
			fracS = fracS[:9]
		}
		frac, ok := parseInt64Exact(fracS)
		if !ok {
			return 0, fmt.Errorf("bad timestamp %q", s)
		}
		for i := len(fracS); i < 9; i++ {
			frac *= 10
		}
		ns += frac
	}
	return ns, nil
}

// pow10f holds the exactly-representable powers of ten (1e0..1e22 are
// all exact in float64), the same constants strconv's exact conversion
// divides by.
var pow10f = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseStraceDur computes time.Duration(ParseFloat(s) *
// float64(time.Second)) — the reference parser's duration formula,
// truncation included — without ParseFloat for the common "sec.frac"
// shape. When both the mantissa (< 2^52) and the power of ten (≤ 1e22)
// are exactly representable, float64(mant)/pow10 is the correctly
// rounded value, identical to ParseFloat's; anything else (signs,
// exponents, hex floats, ≥ 16 significant digits) falls back.
func parseStraceDur(s string) time.Duration {
	intS, fracS, _ := cutByteShort(s, '.')
	// ≤ 15 significant digits keeps the combined mantissa under 2^52;
	// anything larger (or non-digit) is handed to ParseFloat, which
	// computes the identical value more slowly.
	digits := len(intS) + len(fracS)
	if digits == 0 || digits > 15 {
		return parseStraceDurSlow(s)
	}
	iv, ok := parseDigitsU64(intS)
	if !ok {
		return parseStraceDurSlow(s)
	}
	fv, ok := parseDigitsU64(fracS)
	if !ok {
		return parseStraceDurSlow(s)
	}
	fd := len(fracS)
	f := float64(iv*pow10u[fd] + fv)
	if fd > 0 {
		f /= pow10f[fd]
	}
	return time.Duration(f * float64(time.Second))
}

func parseStraceDurSlow(s string) time.Duration {
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(secs * float64(time.Second))
	}
	return 0
}

// parseRetTok handles the common decimal return token without
// strconv.ParseInt's base-0 machinery. Base 0 treats a leading zero as
// an octal (or 0x/0b/0o) prefix and accepts underscores, so only plain
// decimals — "0", or [+-] followed by a nonzero leading digit — take
// the fast path.
func parseRetTok(s string) (int64, bool) {
	t := s
	if len(t) > 0 && (t[0] == '-' || t[0] == '+') {
		t = t[1:]
	}
	if len(t) == 0 || (t[0] == '0' && len(t) > 1) {
		return 0, false
	}
	return parseInt64Exact(s)
}

// trimFast is strings.TrimSpace for the overwhelmingly common case of
// nothing to trim: both edge bytes plain printable ASCII. That check
// inlines at the call sites; anything else (actual padding, other
// whitespace, or a non-ASCII edge byte that could start a Unicode
// space) takes the slow path, whose result is always identical to
// TrimSpace.
func trimFast(s string) string {
	// b-0x21 < 0x5F ⇔ b in [0x21, 0x7F]: printable ASCII, never
	// trimmed. Folding each range test into one compare keeps the
	// function inside the inlining budget.
	if len(s) > 0 && s[0]-0x21 < 0x5F && s[len(s)-1]-0x21 < 0x5F {
		return s
	}
	return trimFastSlow(s)
}

func trimFastSlow(s string) string {
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	for len(s) > 0 && s[len(s)-1] == ' ' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 {
		if c := s[0]; c >= 0x80 || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
			return strings.TrimSpace(s)
		}
		if c := s[len(s)-1]; c >= 0x80 || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
			return strings.TrimSpace(s)
		}
	}
	return s
}

// pendingCall is an open `<unfinished ...>` call awaiting its resumed
// half. Buffers are pooled on the parser's free list.
type pendingCall struct {
	tid int
	ts  int64
	buf []byte
}

// pendingSlot is one entry of the open-call table. tid < 0 marks a
// tombstone whose slot (but not pc, which moves to the free list) can
// be reused.
type pendingSlot struct {
	tid int
	pc  *pendingCall
}

// straceParser holds the per-parse state of the fast path. Timestamps
// are rebased against firstTS, the first one seen, as records are
// materialized.
type straceParser struct {
	tr      *Trace
	tab     *Intern
	pending []pendingSlot // open calls, at most one per TID; linear scan beats a map at trace thread counts
	live    int           // non-tombstone entries of pending
	free    []*pendingCall
	firstTS int64

	args  []string
	patch []byte // scratch for the "] " header rewrite
}

func newStraceParser() *straceParser {
	tr := &Trace{Platform: "linux"}
	return &straceParser{
		tr:      tr,
		tab:     tr.table(),
		firstTS: -1,
	}
}

// takePending removes and returns TID's open call, or nil. Slots are
// tombstoned rather than compacted, so a take is one int store — no
// pointer shuffling, no write barriers.
func (p *straceParser) takePending(tid int) *pendingCall {
	if p.live == 0 {
		return nil
	}
	for i := range p.pending {
		if p.pending[i].tid == tid {
			pc := p.pending[i].pc
			p.pending[i].tid = -1
			p.live--
			if p.live == 0 {
				p.pending = p.pending[:0] // reset so put/take scans stay short
			}
			return pc
		}
	}
	return nil
}

// putPending registers an open call, replacing (and recycling) any
// earlier one on the same TID — the sequential parser's overwrite rule.
// Tombstoned slots are reused before the slice grows.
func (p *straceParser) putPending(pc *pendingCall) {
	dead := -1
	for i := range p.pending {
		if p.pending[i].tid == pc.tid {
			p.recycle(p.pending[i].pc)
			p.pending[i].pc = pc
			return
		}
		if p.pending[i].tid < 0 && dead < 0 {
			dead = i
		}
	}
	p.live++
	if dead >= 0 {
		p.pending[dead] = pendingSlot{pc.tid, pc}
		return
	}
	p.pending = append(p.pending, pendingSlot{pc.tid, pc})
}

func (p *straceParser) newPending(tid int, ts int64) *pendingCall {
	if n := len(p.free); n > 0 {
		pc := p.free[n-1]
		p.free = p.free[:n-1]
		pc.tid, pc.ts = tid, ts
		pc.buf = pc.buf[:0]
		return pc
	}
	return &pendingCall{tid: tid, ts: ts}
}

func (p *straceParser) recycle(pc *pendingCall) {
	if len(p.free) < 64 {
		p.free = append(p.free, pc)
	}
}

// header mirrors straceHeader byte for byte, including the historical
// quirk that the first "] " anywhere in the line is rewritten to " "
// (the reference used strings.Replace(line, "] ", " ", 1) to strip
// "[pid N] " prefixes). The rewrite happens into a reused scratch
// buffer, so the returned rest may alias p.patch until the next line.
func (p *straceParser) header(line string) (tid int, ts int64, rest string, err error) {
	line = strings.TrimPrefix(line, "[pid ")
	// Gate the two-byte search behind a bare IndexByte: almost no line
	// contains ']' at all, and the first "] " can only start at or
	// after the first ']'.
	if j := strings.IndexByte(line, ']'); j >= 0 {
		if i := strings.Index(line[j:], "] "); i >= 0 {
			i += j
			p.patch = append(p.patch[:0], line[:i]...)
			p.patch = append(p.patch, ' ')
			p.patch = append(p.patch, line[i+2:]...)
			line = bytesView(p.patch)
		}
	}
	f1, r1, _ := cutByteShort(line, ' ')
	if t, ok := atoiExact(f1); ok {
		tid = t
		line = trimFast(r1)
		f1, r1, _ = cutByteShort(line, ' ')
	} else {
		tid = 1
	}
	ts, err = parseEpochNSFast(f1)
	if err != nil {
		return 0, 0, "", err
	}
	return tid, ts, trimFast(r1), nil
}

// skipLine reports whether a trimmed line carries no call: blank lines
// and strace's "+++ exited +++" / "--- SIGxxx ---" notices.
func skipLine(line string) bool {
	if line == "" {
		return true
	}
	if c := line[0]; c != '+' && c != '-' {
		return false
	}
	return strings.HasPrefix(line, "+++") || strings.HasPrefix(line, "---")
}

// line processes one raw input line. All errors are *ParseError with
// durable Text.
func (p *straceParser) line(raw string, lineNo int) error {
	line := trimFast(raw)
	if skipLine(line) {
		return nil
	}
	tid, ts, rest, err := p.header(line)
	if err != nil {
		return &ParseError{Line: lineNo, Text: strings.Clone(line), Msg: err.Error()}
	}
	if p.firstTS < 0 {
		p.firstTS = ts
	}
	if strings.HasPrefix(rest, "<...") {
		pc := p.takePending(tid)
		if pc == nil {
			return nil // resumed call we never saw the start of
		}
		idx := strings.Index(rest, "resumed>")
		if idx < 0 {
			return &ParseError{Line: lineNo, Text: strings.Clone(line), Msg: "malformed resumed line"}
		}
		pc.buf = append(pc.buf, rest[idx+len("resumed>"):]...)
		if err := p.finish(pc.tid, pc.ts, bytesView(pc.buf)); err != nil {
			return &ParseError{Line: lineNo, Text: strings.Clone(line), Msg: err.Error()}
		}
		p.recycle(pc)
		return nil
	}
	if strings.HasSuffix(rest, "<unfinished ...>") {
		pc := p.newPending(tid, ts)
		pc.buf = append(pc.buf, strings.TrimSuffix(rest, "<unfinished ...>")...)
		p.putPending(pc)
		return nil
	}
	if err := p.finish(tid, ts, rest); err != nil {
		return &ParseError{Line: lineNo, Text: strings.Clone(line), Msg: err.Error()}
	}
	return nil
}

// cutByteShort is strings.Cut for a single-byte separator expected
// within the first handful of bytes (the space after a TID, the dot in
// a timestamp, the call's opening paren). At those distances a plain
// loop beats IndexByte's vector setup.
func cutByteShort(s string, sep byte) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

var errNoParen = errors.New("no opening paren")
var errUnbalanced = errors.New("unbalanced parens")

// Byte classes for finish's fused paren-match + arg-split scan. A
// backslash is only meaningful inside quotes (the unquoted switch has
// no clsEsc case, matching the original scanner, which ignored it
// there too).
const (
	clsPlain = iota
	clsQuote
	clsOpen
	clsClose
	clsParen
	clsComma
	clsEsc
)

var argClass = [256]uint8{
	'"':  clsQuote,
	'(':  clsOpen,
	'{':  clsOpen,
	'[':  clsOpen,
	'}':  clsClose,
	']':  clsClose,
	')':  clsParen,
	',':  clsComma,
	'\\': clsEsc,
}

// finish parses an assembled call text and appends the record, if the
// call is modelled. The logic tracks straceCall.finish exactly; the
// differences are mechanical (record built in place, reused args
// slice).
func (p *straceParser) finish(tid int, ts int64, text string) error {
	name, rest, ok := cutByteShort(text, '(')
	if !ok {
		return errNoParen
	}
	name = trimFast(name)
	// One pass over the argument text does two jobs that used to be
	// separate scans with identical quote/depth rules: find the closing
	// paren that matches at depth 0, and split the args at top-level
	// commas (matcher depth 1 == splitter depth 0) on the way there.
	// The class table keeps the per-byte cost of ordinary characters —
	// the vast majority — to a single load and branch.
	args := p.args[:0]
	depth := 1
	inQ := false
	end := -1
	argStart := 0
	for i := 0; i < len(rest); i++ {
		cls := argClass[rest[i]]
		if cls == clsPlain {
			continue
		}
		if inQ {
			switch cls {
			case clsEsc:
				i++
			case clsQuote:
				inQ = false
			}
			continue
		}
		switch cls {
		case clsQuote:
			inQ = true
		case clsOpen:
			depth++
		case clsClose:
			depth--
		case clsParen:
			depth--
			if depth == 0 {
				end = i
			}
		case clsComma:
			if depth == 1 {
				args = append(args, trimFast(rest[argStart:i]))
				argStart = i + 1
				// Args are ", "-separated; consuming the known space
				// here changes nothing (TrimSpace strips it anyway)
				// but lets the next trim take its no-op fast path.
				if argStart < len(rest) && rest[argStart] == ' ' {
					argStart++
				}
			}
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return errUnbalanced
	}
	if last := trimFast(rest[argStart:end]); last != "" {
		args = append(args, last)
	}
	p.args = args
	result := trimFast(rest[end+1:])

	// The record is built where it will stay and truncated off again if
	// the call is not modelled.
	n := len(p.tr.Records)
	p.tr.Records = append(p.tr.Records, Record{})
	rec := &p.tr.Records[n]
	rec.TID = int32(tid)
	rec.Call = p.tab.Str(name)
	rec.Start = time.Duration(ts - p.firstTS)
	// Result: "= ret [ERRNO (text)] [<dur>]".
	result = strings.TrimPrefix(result, "=")
	result = trimFast(result)
	var durS string
	if i := strings.LastIndex(result, "<"); i >= 0 && strings.HasSuffix(result, ">") {
		durS = result[i+1 : len(result)-1]
		result = trimFast(result[:i])
	}
	retTok, errPart, _ := cutByteShort(result, ' ')
	if retTok == "?" {
		rec.Ret = 0
	} else if ret, ok := parseRetTok(retTok); ok {
		rec.Ret = ret
	} else {
		// Hex returns appear for mmap.
		ret, err := strconv.ParseInt(retTok, 0, 64)
		if err != nil {
			p.tr.Records = p.tr.Records[:n]
			return fmt.Errorf("bad return %q", retTok)
		}
		rec.Ret = ret
	}
	if rec.Ret == -1 && errPart != "" {
		sym, _, _ := strings.Cut(trimFast(errPart), " ")
		rec.Err = p.tab.Str(sym)
	}
	dur := time.Duration(0)
	if durS != "" {
		dur = parseStraceDur(durS)
	}
	rec.End = rec.Start + dur

	if err := assignStraceArgs(rec, name, args, p.tab); err != nil {
		p.tr.Records = p.tr.Records[:n]
		if err == errSkipCall {
			return nil
		}
		return err
	}
	rec.Seq = int64(n)
	return nil
}

// tooLongError converts bufio.ErrTooLong into the parser's ParseError,
// naming the offending line and the limit.
func tooLongError(lineNo int) *ParseError {
	return &ParseError{
		Line: lineNo,
		Msg: fmt.Sprintf("line exceeds the %d-byte limit; re-record with a smaller strace -s, or raise the cap",
			straceMaxLine),
	}
}

// lineScanner is a minimal replacement for bufio.Scanner+ScanLines,
// preserving its observable behaviour — lines split at '\n' with one
// trailing '\r' dropped, a final unterminated line delivered, buffered
// lines delivered before a read error is reported, and ErrTooLong once
// straceMaxLine bytes (counting a '\r', not the '\n') hold no newline —
// without the per-token split-function machinery.
type lineScanner struct {
	r        io.Reader
	buf      []byte
	pos, end int
	err      error // sticky; io.EOF means clean end of input
}

func newLineScanner(r io.Reader) *lineScanner {
	initial := 64 << 10
	if straceMaxLine < initial {
		initial = straceMaxLine
	}
	return &lineScanner{r: r, buf: make([]byte, initial)}
}

// next returns the next line (ok=true), or ok=false at end of input or
// on error — err() distinguishes. The returned slice aliases the
// internal buffer and dies at the next call.
func (ls *lineScanner) next() ([]byte, bool) {
	for {
		if i := bytes.IndexByte(ls.buf[ls.pos:ls.end], '\n'); i >= 0 {
			line := ls.buf[ls.pos : ls.pos+i]
			ls.pos += i + 1
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, true
		}
		if ls.err != nil {
			// No newline is coming; deliver the final partial line
			// (bufio.Scanner does this for EOF and read errors alike).
			if ls.pos == ls.end {
				return nil, false
			}
			line := ls.buf[ls.pos:ls.end]
			ls.pos = ls.end
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, true
		}
		if ls.end-ls.pos >= straceMaxLine {
			ls.err = bufio.ErrTooLong
			return nil, false
		}
		if ls.pos > 0 {
			copy(ls.buf, ls.buf[ls.pos:ls.end])
			ls.end -= ls.pos
			ls.pos = 0
		}
		if ls.end == len(ls.buf) {
			grow := len(ls.buf) * 2
			if grow > straceMaxLine {
				grow = straceMaxLine
			}
			nb := make([]byte, grow)
			copy(nb, ls.buf[:ls.end])
			ls.buf = nb
		}
		for empty := 0; ; empty++ {
			n, err := ls.r.Read(ls.buf[ls.end:])
			ls.end += n
			if err != nil {
				ls.err = err
				break
			}
			if n > 0 {
				break
			}
			if empty >= 100 {
				ls.err = io.ErrNoProgress
				return nil, false
			}
		}
	}
}

// readErr returns the error that ended the scan, nil for clean EOF.
func (ls *lineScanner) readErr() error {
	if ls.err == io.EOF {
		return nil
	}
	return ls.err
}

// parseStraceFast is the sequential fast path behind ParseStrace.
func parseStraceFast(r io.Reader) (*Trace, error) {
	return parseStraceEmit(r, 0, 0, nil)
}

// ParseStraceStream parses strace output sequentially while handing
// completed records to emit in batches of at least batch records (the
// final batch may be smaller). Records carry final Seq numbers and are
// emitted exactly once, in trace order; the returned Trace owns them
// all. Each batch comes with strs, the string table as it stands when
// the batch is handed over: it names every string the batch's records
// index, and neither the batch nor strs is ever written again, so the
// consumer may read both on another goroutine while the parse goes on.
// An emit error aborts the parse and is returned verbatim. This is the
// producer half of the streaming parse→compile path (see
// artc.CompileStraceStream); batch <= 0 selects a default. lines, when
// the caller has counted them, is the number of lines r holds or more;
// it sizes the trace's Records and changes nothing else (0: unknown).
func ParseStraceStream(r io.Reader, lines, batch int, emit func(recs []Record, strs []string) error) (*Trace, error) {
	if batch <= 0 {
		batch = 512
	}
	return parseStraceEmit(r, lines, batch, emit)
}

func parseStraceEmit(r io.Reader, lines, batch int, emit func([]Record, []string) error) (*Trace, error) {
	ls := newLineScanner(r)
	p := newStraceParser()
	if lines > 0 {
		// Every record ends a line, so Records never regrows.
		p.tr.Records = make([]Record, 0, lines)
	}
	lineNo := 0
	emitted := 0
	for {
		lineB, ok := ls.next()
		if !ok {
			break
		}
		lineNo++
		if err := p.line(bytesView(lineB), lineNo); err != nil {
			return nil, err
		}
		if emit != nil && len(p.tr.Records)-emitted >= batch {
			if err := p.flush(emit, &emitted); err != nil {
				return nil, err
			}
		}
	}
	if err := ls.readErr(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, tooLongError(lineNo + 1)
		}
		return nil, err
	}
	// No Renumber pass: finish assigns Seq = append index, which is
	// exactly what Renumber would recompute.
	if emit != nil {
		if err := p.flush(emit, &emitted); err != nil {
			return nil, err
		}
	}
	// A line bound is loose on text full of calls the parser skips; what
	// it over-allocated must not live as long as the trace does.
	if recs := p.tr.Records; cap(recs) > len(recs)+len(recs)/4 {
		p.tr.Records = slices.Clone(recs)
	}
	return p.tr, nil
}

// flush hands the not-yet-emitted tail to emit with the string table's
// current slice header. Both stay valid across later appends: an append
// writes past what they hold (or into a new array, leaving theirs as it
// was), never over an element either one holds.
func (p *straceParser) flush(emit func([]Record, []string) error, emitted *int) error {
	end := len(p.tr.Records)
	recs := p.tr.Records[*emitted:end:end]
	if len(recs) == 0 {
		return nil
	}
	*emitted = end
	return emit(recs, p.tr.Strs[:len(p.tr.Strs):len(p.tr.Strs)])
}
