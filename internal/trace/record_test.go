package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// A record is a row of numbers: at most 112 bytes, no field that can
// carry a pointer, and Trace.Records holds the records themselves, so a
// trace's records are one slab the collector never scans. The walk fails
// as soon as a field that carries a pointer is added.
func TestRecordIsARowOfIndices(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size > 112 {
		t.Fatalf("Record is %d bytes, want at most 112", size)
	}
	typ := reflect.TypeOf(Record{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !pointerFree(f.Type) {
			t.Errorf("Record.%s is a %v, which can carry a pointer; it must hold none", f.Name, f.Type)
		}
	}
	if elem := reflect.TypeOf(Trace{}.Records).Elem(); elem != typ {
		t.Fatalf("Trace.Records holds %v, want Record values", elem)
	}
	// The zero Str is the empty string, in a table and without one.
	tr := &Trace{}
	if tr.Str(0) != "" || tr.Intern("") != 0 {
		t.Fatal("Str 0 is not the empty string")
	}
	if s := tr.Intern("/a"); s == 0 || tr.Str(s) != "/a" || tr.Intern("/a") != s || tr.Strs[0] != "" {
		t.Fatalf("interning /a gave %d, table %q", s, tr.Strs)
	}
}

func pointerFree(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// Every strace golden input and fuzz seed that parses round-trips
// byte-identically through both text codecs: the native encoding
// decodes and re-encodes to itself, and a strace rendering is a fixed
// point of parse-then-render.
func TestTextCodecsRoundTrip(t *testing.T) {
	inputs := straceGoldenInputs()
	for i, seed := range straceSeeds(t) {
		inputs[fmt.Sprintf("seed%02d", i)] = seed
	}
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	parsed := 0
	for _, name := range names {
		tr, err := ParseStrace(strings.NewReader(inputs[name]))
		if err != nil {
			continue
		}
		parsed++
		checkTextRoundTrips(t, name, tr)
	}
	if parsed < len(names)/2 {
		t.Fatalf("only %d of %d inputs parsed", parsed, len(names))
	}
}

// checkTextRoundTrips holds tr to both text codecs' round trips.
func checkTextRoundTrips(t *testing.T, name string, tr *Trace) {
	t.Helper()
	var native bytes.Buffer
	if err := tr.Encode(&native); err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	back, err := Decode(bytes.NewReader(native.Bytes()))
	if err != nil {
		t.Fatalf("%s: Decode: %v", name, err)
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatalf("%s: re-Encode: %v", name, err)
	}
	if !bytes.Equal(native.Bytes(), again.Bytes()) {
		t.Fatalf("%s: native Encode(Decode(Encode(tr))) differs from Encode(tr)", name)
	}

	render := func(tr *Trace) []byte {
		var b bytes.Buffer
		if err := EncodeStrace(&b, tr); err != nil {
			t.Fatalf("%s: EncodeStrace: %v", name, err)
		}
		return b.Bytes()
	}
	parse := func(text []byte) *Trace {
		tr, err := ParseStrace(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("%s: ParseStrace of a rendering: %v", name, err)
		}
		return tr
	}
	// The first pass drops what the parser skips and rebases the first
	// record to zero; from there the rendering must reproduce itself.
	text := render(parse(render(tr)))
	if again := render(parse(text)); !bytes.Equal(text, again) {
		t.Fatalf("%s: strace rendering is not a fixed point of parse-then-render", name)
	}
}
