package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The native trace format is line-oriented and self-describing:
//
//	#artc-trace v1 platform=linux
//	0 1 open path="/a/b" flags=0x42 mode=0644 = 3 - 1000 2500
//	1 1 read fd=3 size=4096 = 4096 - 2600 5000
//	2 2 stat path="/x" = -1 ENOENT 2700 2900
//
// Each record line is: seq tid call key=value... = ret errno start end,
// where errno is "-" for success and times are integer nanoseconds.

// Encode serializes the trace in native format.
func (tr *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#artc-trace v1 platform=%s\n", tr.Platform); err != nil {
		return err
	}
	for i := range tr.Records {
		if err := writeRecord(bw, tr, &tr.Records[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeRecord(w *bufio.Writer, tr *Trace, r *Record) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d %s", r.Seq, r.TID, tr.Str(r.Call))
	if r.Path != 0 {
		fmt.Fprintf(&b, " path=%q", tr.Str(r.Path))
	}
	if r.Path2 != 0 {
		fmt.Fprintf(&b, " path2=%q", tr.Str(r.Path2))
	}
	if r.FD != 0 {
		fmt.Fprintf(&b, " fd=%d", r.FD)
	}
	if r.FD2 != 0 {
		fmt.Fprintf(&b, " fd2=%d", r.FD2)
	}
	if r.Offset != 0 {
		fmt.Fprintf(&b, " off=%d", r.Offset)
	}
	if r.Size != 0 {
		fmt.Fprintf(&b, " size=%d", r.Size)
	}
	if r.Flags != 0 {
		fmt.Fprintf(&b, " flags=%#x", int64(r.Flags))
	}
	if r.Mode != 0 {
		fmt.Fprintf(&b, " mode=%#o", r.Mode)
	}
	if r.Name != 0 {
		fmt.Fprintf(&b, " name=%q", tr.Str(r.Name))
	}
	if r.Whence != 0 {
		fmt.Fprintf(&b, " whence=%d", r.Whence)
	}
	if r.AIO != 0 {
		fmt.Fprintf(&b, " aio=%d", r.AIO)
	}
	errs := tr.Str(r.Err)
	if errs == "" {
		errs = "-"
	}
	fmt.Fprintf(&b, " = %d %s %d %d\n", r.Ret, errs, int64(r.Start), int64(r.End))
	_, err := w.WriteString(b.String())
	return err
}

// ParseError reports a malformed trace line.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %s (%q)", e.Line, e.Msg, e.Text)
}

// Decode parses a native-format trace.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20) // grown on demand; lines stay capped at 1 MiB (TestLineLimit)
	tr := &Trace{Platform: "linux"}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "#artc-trace") {
				for _, f := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(f, "platform="); ok {
						tr.Platform = v
					}
				}
			}
			continue
		}
		rec, err := parseRecordLine(tr, line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		}
		tr.Records = append(tr.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// fields splits a record line into tokens, keeping quoted strings (which
// may contain spaces) intact.
func fields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		inQuote := false
		for i < len(line) && (inQuote || line[i] != ' ') {
			switch line[i] {
			case '"':
				inQuote = !inQuote
			case '\\':
				if inQuote && i+1 < len(line) {
					i++
				}
			}
			i++
		}
		if inQuote {
			return nil, fmt.Errorf("unterminated quote")
		}
		out = append(out, line[start:i])
	}
	return out, nil
}

// parseRecordLine parses one record line, interning its strings into
// tr.
func parseRecordLine(tr *Trace, line string) (Record, error) {
	var rec Record
	toks, err := fields(line)
	if err != nil {
		return rec, err
	}
	if len(toks) < 4 {
		return rec, fmt.Errorf("too few fields")
	}
	if rec.Seq, err = strconv.ParseInt(toks[0], 10, 64); err != nil {
		return rec, fmt.Errorf("bad seq: %v", err)
	}
	tid, err := strconv.ParseInt(toks[1], 10, 32)
	if err != nil {
		return rec, fmt.Errorf("bad tid: %v", err)
	}
	rec.TID = int32(tid)
	rec.Call = tr.Intern(toks[2])

	i := 3
	for i < len(toks) && toks[i] != "=" {
		key, val, ok := strings.Cut(toks[i], "=")
		if !ok {
			return rec, fmt.Errorf("bad key=value token %q", toks[i])
		}
		if err := setField(tr, &rec, key, val); err != nil {
			return rec, err
		}
		i++
	}
	if i+4 >= len(toks)+1 && len(toks)-i != 5 {
		return rec, fmt.Errorf("bad result section")
	}
	// toks[i] == "=", then ret errno start end.
	rest := toks[i+1:]
	if len(rest) != 4 {
		return rec, fmt.Errorf("result section has %d fields, want 4", len(rest))
	}
	if rec.Ret, err = strconv.ParseInt(rest[0], 10, 64); err != nil {
		return rec, fmt.Errorf("bad ret: %v", err)
	}
	if rest[1] != "-" {
		rec.Err = tr.Intern(rest[1])
	}
	start, err := strconv.ParseInt(rest[2], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad start: %v", err)
	}
	end, err := strconv.ParseInt(rest[3], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad end: %v", err)
	}
	rec.Start, rec.End = time.Duration(start), time.Duration(end)
	return rec, nil
}

func setField(tr *Trace, rec *Record, key, val string) error {
	switch key {
	case "path", "path2", "name":
		s, err := strconv.Unquote(val)
		if err != nil {
			return fmt.Errorf("bad quoted %s: %v", key, err)
		}
		switch key {
		case "path":
			rec.Path = tr.Intern(s)
		case "path2":
			rec.Path2 = tr.Intern(s)
		case "name":
			rec.Name = tr.Intern(s)
		}
		return nil
	case "flags":
		n, err := strconv.ParseInt(val, 0, 64)
		if err != nil {
			return fmt.Errorf("bad flags: %v", err)
		}
		rec.Flags = OpenFlag(n)
		return nil
	case "mode":
		n, err := strconv.ParseUint(val, 0, 32)
		if err != nil {
			return fmt.Errorf("bad mode: %v", err)
		}
		rec.Mode = uint32(n)
		return nil
	case "whence":
		n, err := strconv.ParseInt(val, 10, 32)
		if err != nil {
			return fmt.Errorf("bad whence: %v", err)
		}
		rec.Whence = int32(n)
		return nil
	}
	n, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return fmt.Errorf("bad %s: %v", key, err)
	}
	switch key {
	case "fd":
		rec.FD = n
	case "fd2":
		rec.FD2 = n
	case "off":
		rec.Offset = n
	case "size":
		rec.Size = n
	case "aio":
		rec.AIO = n
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}
