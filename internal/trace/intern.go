package trace

import "strings"

// Intern is a trace's string-interning table: the index from each
// distinct string of Trace.Strs to its Str. The strace lexer hands it
// sub-slices of the scanner's reusable buffer; interning is therefore
// also the copy-out point that breaks aliasing — a string the table
// adds never references a transient buffer, whatever the argument
// aliased (see DESIGN.md "Trace ingest" for the contract).
//
// The table also caches composite open-flag sets ("O_WRONLY|O_CREAT"),
// so a flag combination is scanned once per trace rather than once per
// call.
//
// An Intern is not safe for concurrent use.
type Intern struct {
	tr    *Trace
	ids   map[string]Str
	flags map[string]OpenFlag
}

// Str returns the Str naming s in the table's trace, copying s into
// Trace.Strs on first sight. The argument may alias a reused buffer;
// the table never does.
func (t *Intern) Str(s string) Str {
	if s == "" {
		return 0
	}
	if v, ok := t.ids[s]; ok {
		return v
	}
	v := Str(len(t.tr.Strs))
	c := strings.Clone(s)
	t.tr.Strs = append(t.tr.Strs, c)
	t.ids[c] = v
	return v
}

// openFlags parses a rendered flag set, answering repeats from the
// composite cache.
func (t *Intern) openFlags(s string) OpenFlag {
	if f, ok := t.flags[s]; ok {
		return f
	}
	f := parseOpenFlags(s)
	if t.flags == nil {
		t.flags = make(map[string]OpenFlag)
	}
	t.flags[strings.Clone(s)] = f
	return f
}
