package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// parseStraceReference is the original allocating parser, kept verbatim
// as the behavioural oracle for the fast path.
func parseStraceReference(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	// Scanner treats max(cap(buf), limit) as the cap, so the initial
	// buffer must not exceed straceMaxLine for the limit to bind.
	initial := 64 << 10
	if straceMaxLine < initial {
		initial = straceMaxLine
	}
	sc.Buffer(make([]byte, initial), straceMaxLine)
	tr := &Trace{Platform: "linux"}
	// Pending unfinished call per TID.
	pending := make(map[int]*straceCall)
	lineNo := 0
	var firstTS int64 = -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "+++") || strings.HasPrefix(line, "---") {
			continue
		}
		tid, ts, rest, err := straceHeader(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		}
		if firstTS < 0 {
			firstTS = ts
		}
		if strings.HasPrefix(rest, "<...") {
			// Resumption of an unfinished call.
			p, ok := pending[tid]
			if !ok {
				continue // resumed call we never saw the start of
			}
			delete(pending, tid)
			idx := strings.Index(rest, "resumed>")
			if idx < 0 {
				return nil, &ParseError{Line: lineNo, Text: line, Msg: "malformed resumed line"}
			}
			p.text += rest[idx+len("resumed>"):]
			rec, ok, err := p.finish(tr, firstTS)
			if err != nil {
				return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
			}
			if ok {
				tr.Records = append(tr.Records, rec)
			}
			continue
		}
		if strings.HasSuffix(rest, "<unfinished ...>") {
			pending[tid] = &straceCall{
				tid:  tid,
				ts:   ts,
				text: strings.TrimSuffix(rest, "<unfinished ...>"),
			}
			continue
		}
		call := &straceCall{tid: tid, ts: ts, text: rest}
		rec, ok, err := call.finish(tr, firstTS)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		}
		if ok {
			tr.Records = append(tr.Records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &ParseError{
				Line: lineNo + 1,
				Msg: fmt.Sprintf("line exceeds the %d-byte limit; re-record with a smaller strace -s, or raise the cap",
					straceMaxLine),
			}
		}
		return nil, err
	}
	tr.Renumber()
	return tr, nil
}

// straceHeader splits "[pid] timestamp rest" returning tid, the epoch
// timestamp in integer nanoseconds, and the call text. The pid is
// optional (no -f). The timestamp is parsed as integer seconds plus
// fraction digits — float64 cannot hold epoch-seconds at microsecond
// precision.
func straceHeader(line string) (tid int, ts int64, rest string, err error) {
	line = strings.TrimPrefix(line, "[pid ")
	line = strings.Replace(line, "] ", " ", 1)
	f1, r1, _ := strings.Cut(line, " ")
	if t, err2 := strconv.Atoi(f1); err2 == nil {
		// Leading pid present.
		tid = t
		line = strings.TrimSpace(r1)
		f1, r1, _ = strings.Cut(line, " ")
	} else {
		tid = 1
	}
	ts, err = parseEpochNS(f1)
	if err != nil {
		return 0, 0, "", err
	}
	return tid, ts, strings.TrimSpace(r1), nil
}

type straceCall struct {
	tid  int
	ts   int64 // epoch nanoseconds
	text string
}

// finish parses the assembled call text into a Record, interning its
// strings into tr; ok is false for calls the model does not handle.
func (c *straceCall) finish(tr *Trace, base int64) (rec Record, ok bool, err error) {
	name, rest, found := strings.Cut(c.text, "(")
	if !found {
		return rec, false, fmt.Errorf("no opening paren")
	}
	name = strings.TrimSpace(name)
	// Split args from result: find the closing paren that matches at
	// depth 0, respecting quotes.
	depth := 1
	inQ := false
	end := -1
	for i := 0; i < len(rest); i++ {
		ch := rest[i]
		if inQ {
			if ch == '\\' {
				i++
			} else if ch == '"' {
				inQ = false
			}
			continue
		}
		switch ch {
		case '"':
			inQ = true
		case '(', '{', '[':
			depth++
		case ')', '}', ']':
			depth--
			if depth == 0 && ch == ')' {
				end = i
			}
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return rec, false, fmt.Errorf("unbalanced parens")
	}
	argstr := rest[:end]
	result := strings.TrimSpace(rest[end+1:])

	tab := tr.table()
	rec = Record{TID: int32(c.tid), Call: tab.Str(name)}
	rec.Start = time.Duration(c.ts - base)
	// Result: "= ret [ERRNO (text)] [<dur>]".
	result = strings.TrimPrefix(result, "=")
	result = strings.TrimSpace(result)
	var durS string
	if i := strings.LastIndex(result, "<"); i >= 0 && strings.HasSuffix(result, ">") {
		durS = result[i+1 : len(result)-1]
		result = strings.TrimSpace(result[:i])
	}
	retTok, errPart, _ := strings.Cut(result, " ")
	if retTok == "?" {
		rec.Ret = 0
	} else {
		// Hex returns appear for mmap.
		ret, err := strconv.ParseInt(retTok, 0, 64)
		if err != nil {
			return rec, false, fmt.Errorf("bad return %q", retTok)
		}
		rec.Ret = ret
	}
	if rec.Ret == -1 && errPart != "" {
		sym, _, _ := strings.Cut(strings.TrimSpace(errPart), " ")
		rec.Err = tab.Str(sym)
	}
	dur := time.Duration(0)
	if durS != "" {
		if secs, err := strconv.ParseFloat(durS, 64); err == nil {
			dur = time.Duration(secs * float64(time.Second))
		}
	}
	rec.End = rec.Start + dur

	args := splitStraceArgs(argstr)
	if err := assignStraceArgs(&rec, name, args, tab); err != nil {
		if err == errSkipCall {
			return rec, false, nil
		}
		return rec, false, err
	}
	return rec, true, nil
}

// splitStraceArgs splits a comma-separated argument list, respecting
// quotes and bracket nesting.
func splitStraceArgs(s string) []string {
	var out []string
	depth := 0
	inQ := false
	start := 0
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if inQ {
			if ch == '\\' {
				i++
			} else if ch == '"' {
				inQ = false
			}
			continue
		}
		switch ch {
		case '"':
			inQ = true
		case '(', '{', '[':
			depth++
		case ')', '}', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" {
		out = append(out, last)
	}
	return out
}
