package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Ingest benchmarks. The corpus is a generated multi-threaded workload
// (see genStraceCorpus) rendered as strace text — the same text every
// parser variant reads, so records/s and allocs/record compare
// directly. b.SetBytes makes `go test -bench` report MB/s.

func benchCorpus(b testing.TB) (string, int) {
	b.Helper()
	corpus := genStraceCorpus(b, 20000, 42)
	tr, err := ParseStrace(strings.NewReader(corpus))
	if err != nil {
		b.Fatal(err)
	}
	return corpus, len(tr.Records)
}

func BenchmarkParseStrace(b *testing.B) {
	corpus, _ := benchCorpus(b)
	data := []byte(corpus)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStrace(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseStraceReference(b *testing.B) {
	corpus, _ := benchCorpus(b)
	data := []byte(corpus)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseStraceReference(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseStraceAllocRegression is the allocs-per-record gate: the
// fast path must spend at most a quarter of the reference parser's
// allocations on the same corpus.
func TestParseStraceAllocRegression(t *testing.T) {
	corpus, records := benchCorpus(t)
	data := []byte(corpus)
	measure := func(parse func() error) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := parse(); err != nil {
				t.Fatal(err)
			}
		})
	}
	fast := measure(func() error {
		_, err := ParseStrace(bytes.NewReader(data))
		return err
	})
	ref := measure(func() error {
		_, err := parseStraceReference(bytes.NewReader(data))
		return err
	})
	t.Logf("allocs/parse: fast %.0f (%.2f/record), reference %.0f (%.2f/record)",
		fast, fast/float64(records), ref, ref/float64(records))
	if fast > ref/4 {
		t.Fatalf("fast path allocates %.0f, more than 25%% of the reference's %.0f", fast, ref)
	}
}
