package rootreplay

import (
	"bytes"
	"strings"
	"testing"
)

// The public-facade integration test: strace in, compiled benchmark out,
// replayed on two machine configurations, benchmark file round-tripped.
func TestFacadeEndToEnd(t *testing.T) {
	const straceIn = `1 1679588291.000100 open("/in/data", O_RDONLY) = 3 <0.000020>
1 1679588291.000200 read(3, "x"..., 65536) = 65536 <0.000150>
2 1679588291.000300 read(3, "y"..., 65536) = 65536 <0.000140>
2 1679588291.000500 open("/out/result", O_WRONLY|O_CREAT, 0644) = 4 <0.000030>
2 1679588291.000600 write(4, "r"..., 4096) = 4096 <0.000050>
2 1679588291.000700 fsync(4) = 0 <0.002000>
2 1679588291.000900 close(4) = 0 <0.000004>
1 1679588291.001000 close(3) = 0 <0.000005>
`
	tr, err := ParseStrace(strings.NewReader(straceIn))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 8 || len(tr.Threads()) != 2 {
		t.Fatalf("parsed %d records / %d threads", len(tr.Records), len(tr.Threads()))
	}
	b, err := Compile(tr, nil, DefaultModes())
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the benchmark file.
	var buf bytes.Buffer
	if err := b.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b2, err := DecodeBenchmark(&buf)
	if err != nil {
		t.Fatal(err)
	}

	hdd := DefaultConfig()
	ssd := DefaultConfig()
	ssd.Name, ssd.Device = "linux-ext4-ssd", "ssd"
	var hddTime, ssdTime int64
	for _, conf := range []Config{hdd, ssd} {
		sys := NewSystem(conf)
		if err := InitSystem(sys, b2); err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(sys, b2, Options{Method: MethodARTC, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("%s: %d errors: %v", conf.Name, rep.Errors, rep.ErrorSamples)
		}
		if conf.Device == "ssd" {
			ssdTime = int64(rep.Elapsed)
		} else {
			hddTime = int64(rep.Elapsed)
		}
		// Timeline rendering works against the decoded benchmark.
		tl := rep.Timeline(b2, 40)
		if !strings.Contains(tl, "T") || !strings.Contains(tl, "#") {
			t.Fatalf("timeline:\n%s", tl)
		}
	}
	if ssdTime >= hddTime {
		t.Fatalf("SSD replay (%d) not faster than HDD (%d)", ssdTime, hddTime)
	}
}

func TestFacadeIBenchAndModes(t *testing.T) {
	const ib = `1679.000001 1679.000030 7 open 3 0 "/Library/x" 0x0 0644
1679.000100 1679.000120 7 pread 4096 0 3 4096 0
1679.000200 1679.000210 7 close 0 0 3
`
	tr, err := ParseIBench(strings.NewReader(ib))
	if err != nil {
		t.Fatal(err)
	}
	modes, err := ParseModes("file_seq,fd_stage")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(tr, nil, modes)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(DefaultConfig())
	if err := InitSystem(sys, b); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(sys, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %v", rep.ErrorSamples)
	}
}
