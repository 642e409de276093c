package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTable1ESCATOps-8   	       3	  45123456 ns/op	     12345 ops	        88.20 io-node-s
BenchmarkCacheESCATReads-8  	       1	 987654321 ns/op	        38.50 pfs-read-ms	        13.20 cached-read-ms	        69.20 hit-pct
BenchmarkNoMetrics          	     100	     50000 ns/op
BenchmarkSingleMachinePaperScale/app=escat/serial 	       2	 150000000 ns/op	      9205 sim-wall-s	  32625728 B/op	    104236 allocs/op
garbage line that is not a benchmark
BenchmarkBroken-8           	     abc	     50000 ns/op
PASS
ok  	repro	4.567s
`

func TestParse(t *testing.T) {
	rs := Parse(sample)
	if len(rs) != 4 {
		t.Fatalf("%d results, want 4: %+v", len(rs), rs)
	}
	// Sorted by name.
	if rs[0].Name != "BenchmarkCacheESCATReads" || rs[1].Name != "BenchmarkNoMetrics" ||
		rs[2].Name != "BenchmarkSingleMachinePaperScale/app=escat/serial" ||
		rs[3].Name != "BenchmarkTable1ESCATOps" {
		t.Fatalf("order: %+v", rs)
	}
	c := rs[0]
	if c.Procs != 8 || c.Iters != 1 || c.NsPerOp != 987654321 {
		t.Fatalf("cache result %+v", c)
	}
	if c.Metrics["pfs-read-ms"] != 38.50 || c.Metrics["cached-read-ms"] != 13.20 ||
		c.Metrics["hit-pct"] != 69.20 {
		t.Fatalf("cache metrics %+v", c.Metrics)
	}
	n := rs[1]
	if n.Procs != 1 || n.Iters != 100 || n.NsPerOp != 50000 || n.Metrics != nil {
		t.Fatalf("no-metrics result %+v", n)
	}
	// Every line gets wall_s = ns/op x iters, single-machine runs included.
	for _, r := range rs {
		want := r.NsPerOp * float64(r.Iters) / 1e9
		if r.WallS != want {
			t.Errorf("%s: wall_s = %v, want %v", r.Name, r.WallS, want)
		}
	}
	s := rs[2]
	if s.Iters != 2 || s.WallS != 0.3 {
		t.Fatalf("single-machine result %+v", s)
	}
	if s.BytesPerOp != 32625728 || s.AllocsPerOp != 104236 {
		t.Fatalf("single-machine alloc fields %+v", s)
	}
	if s.Metrics["sim-wall-s"] != 9205 || len(s.Metrics) != 1 {
		t.Fatalf("single-machine metrics %+v (B/op and allocs/op must not leak into metrics)", s.Metrics)
	}
	e := rs[3]
	if e.Metrics["ops"] != 12345 || e.Metrics["io-node-s"] != 88.20 {
		t.Fatalf("escat metrics %+v", e.Metrics)
	}
}

func TestParseEmpty(t *testing.T) {
	if rs := Parse("PASS\nok repro 0.1s\n"); len(rs) != 0 {
		t.Fatalf("parsed %d results from empty output", len(rs))
	}
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkFoo-8", "BenchmarkFoo", 8},
		{"BenchmarkFoo", "BenchmarkFoo", 1},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 1},
	} {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = %q, %d", tc.in, name, procs)
		}
	}
}

func TestGateAllocs(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkA", AllocsPerOp: 100},
		{Name: "BenchmarkA", AllocsPerOp: 90}, // repetitions: the minimum counts
		{Name: "BenchmarkB", AllocsPerOp: 1000},
	}
	var out strings.Builder
	run := []Result{
		{Name: "BenchmarkA", AllocsPerOp: 99, NsPerOp: 5},
		{Name: "BenchmarkA", AllocsPerOp: 95, NsPerOp: 7},
		{Name: "BenchmarkB", AllocsPerOp: 1100},
		{Name: "BenchmarkNew", AllocsPerOp: 1e6}, // not in the baseline: ungated
	}
	if err := GateAllocs(&out, run, base, 10); err != nil {
		t.Fatalf("within bound: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkA: 95 allocs/op <= 99 (baseline 90 +10%), 7 ns/op") {
		t.Fatalf("report:\n%s", out.String())
	}
	run[2].AllocsPerOp = 1101
	err := GateAllocs(&out, run, base, 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB") || strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("over bound: got %v", err)
	}
	err = GateAllocs(&out, run[:2], base, 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("missing benchmark: got %v", err)
	}
}
