package trace

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// TestLineLimit pins the longest line Decode and ParseIBench accept: a
// line of 1<<20 bytes, newline not counted, is refused with bufio's
// error and one byte less is parsed, whether or not a newline ends it
// and whether the line is first or follows others. The record is a real
// one whose path is padded to the length wanted.
func TestLineLimit(t *testing.T) {
	const limit = 1 << 20
	sites := []struct {
		name         string
		parse        func(io.Reader) (*Trace, error)
		head, tail   string // a record line is head + path + tail
		before, call string
	}{
		{"Decode", Decode, `0 1 stat path="/`, `" = 0 - 1000 2000`, "#artc-trace v1 platform=linux\n", "stat"},
		{"ParseIBench", ParseIBench, `1679.000001 1679.000002 1 stat64 0 0 "/`, `"`, "# capture\n", "stat64"},
	}
	for _, s := range sites {
		line := func(n int) string {
			return s.head + strings.Repeat("a", n-len(s.head)-len(s.tail)) + s.tail
		}
		for _, c := range []struct {
			name, in string
			ok       bool
		}{
			{"longest accepted", line(limit-1) + "\n", true},
			{"longest accepted, not first", s.before + line(limit-1) + "\n", true},
			{"longest accepted, no newline", line(limit - 1), true},
			{"shortest refused", line(limit) + "\n", false},
			{"shortest refused, not first", s.before + line(limit) + "\n", false},
			{"shortest refused, no newline", line(limit), false},
		} {
			tr, err := s.parse(strings.NewReader(c.in))
			switch {
			case c.ok && err != nil:
				t.Errorf("%s, %s: %v", s.name, c.name, err)
			case c.ok && (len(tr.Records) != 1 || tr.Records[0].Call != s.call || len(tr.Records[0].Path) != limit-1-len(s.head)-len(s.tail)+1):
				t.Errorf("%s, %s: parsed %d records", s.name, c.name, len(tr.Records))
			case !c.ok && (err != bufio.ErrTooLong || err.Error() != "bufio.Scanner: token too long"):
				t.Errorf("%s, %s: error %v, want %v", s.name, c.name, err, bufio.ErrTooLong)
			}
		}
	}
}
