package snapshot

import (
	"bufio"
	"strings"
	"testing"
)

// TestLineLimit pins the longest line Decode accepts: a line of 1<<20
// bytes, newline not counted, is refused with bufio's error and one byte
// less is parsed, whether or not a newline ends it and whether the line
// is first or follows others. The entry is a real one whose path is
// padded to the length wanted.
func TestLineLimit(t *testing.T) {
	const limit = 1 << 20
	const head, tail = "file /", " 4096"
	line := func(n int) string {
		return head + strings.Repeat("a", n-len(head)-len(tail)) + tail
	}
	for _, c := range []struct {
		name, in string
		ok       bool
	}{
		{"longest accepted", line(limit-1) + "\n", true},
		{"longest accepted, not first", "dir /d\n" + line(limit-1) + "\n", true},
		{"longest accepted, no newline", line(limit - 1), true},
		{"shortest refused", line(limit) + "\n", false},
		{"shortest refused, not first", "dir /d\n" + line(limit) + "\n", false},
		{"shortest refused, no newline", line(limit), false},
	} {
		snap, err := Decode(strings.NewReader(c.in))
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.ok:
			if e := snap.Entries[len(snap.Entries)-1]; e.Size != 4096 || len(e.Path) != limit-1-len(head)-len(tail)+1 {
				t.Errorf("%s: last entry has size %d and a path of %d bytes", c.name, e.Size, len(e.Path))
			}
		case err != bufio.ErrTooLong || err.Error() != "bufio.Scanner: token too long":
			t.Errorf("%s: error %v, want %v", c.name, err, bufio.ErrTooLong)
		}
	}
}
