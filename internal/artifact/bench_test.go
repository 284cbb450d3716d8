package artifact

// BenchmarkDecodeBinaryMagritte times the warm half of the cache hot
// path — rebuilding a ready-to-replay Benchmark from its binary
// artifact — on the same mid-size Magritte trace BenchmarkCompile and
// BenchmarkReplayObsOff measure.

import (
	"bytes"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/magritte"
)

func BenchmarkDecodeBinaryMagritte(b *testing.B) {
	sp, _ := magritte.SpecByName("pages_docphoto15")
	gen, err := magritte.Generate(sp, magritte.GenOptions{Scale: 0.02, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	bm, err := artc.Compile(gen.Trace, gen.Snapshot, core.DefaultModes())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bm.EncodeBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := artc.DecodeBinaryBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}
