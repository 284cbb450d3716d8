package trace

import "strings"

// Intern is a string-interning table: one durable copy per distinct
// string, shared by every record that mentions it. The strace lexer
// hands it sub-slices of the scanner's reusable buffer; interning is
// therefore also the copy-out point that breaks aliasing — a string
// returned by Str never references a transient buffer, whatever the
// argument aliased (see DESIGN.md "Trace ingest" for the contract).
//
// The table also caches composite open-flag sets ("O_WRONLY|O_CREAT"),
// so a flag combination is scanned once per trace rather than once per
// call.
//
// An Intern is not safe for concurrent use.
type Intern struct {
	strs  map[string]string
	flags map[string]OpenFlag
}

// NewIntern returns an empty interning table.
func NewIntern() *Intern {
	return &Intern{
		strs:  make(map[string]string),
		flags: make(map[string]OpenFlag),
	}
}

// Str returns the durable interned copy of s, copying it into the table
// on first sight. The argument may alias a reused buffer; the result
// never does.
func (t *Intern) Str(s string) string {
	if s == "" {
		return ""
	}
	if v, ok := t.strs[s]; ok {
		return v
	}
	v := strings.Clone(s)
	t.strs[v] = v
	return v
}

// str is Str with a nil-tolerant receiver: a nil table is the identity,
// used by the reference parser, whose strings are already durable.
func (t *Intern) str(s string) string {
	if t == nil {
		return s
	}
	return t.Str(s)
}

// Has reports whether s is already interned. Tests use it to assert
// sharing invariants.
func (t *Intern) Has(s string) bool {
	_, ok := t.strs[s]
	return ok
}

// Len reports the number of distinct strings in the table.
func (t *Intern) Len() int { return len(t.strs) }

// AddAll merges src's entries into t. Existing entries win, so strings
// already shared by t's records keep their backing storage; new entries
// reuse src's backing storage rather than re-copying. A nil src is a
// no-op.
func (t *Intern) AddAll(src *Intern) {
	if src == nil {
		return
	}
	for k, v := range src.strs {
		if _, ok := t.strs[k]; !ok {
			t.strs[k] = v
		}
	}
	for k, v := range src.flags {
		if _, ok := t.flags[k]; !ok {
			t.flags[k] = v
		}
	}
}

// openFlags parses a rendered flag set, answering repeats from the
// composite cache. The nil receiver parses without caching (reference
// parser).
func (t *Intern) openFlags(s string) OpenFlag {
	if t == nil {
		return parseOpenFlags(s)
	}
	if f, ok := t.flags[s]; ok {
		return f
	}
	f := parseOpenFlags(s)
	t.flags[strings.Clone(s)] = f
	return f
}
