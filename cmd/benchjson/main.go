// Command benchjson runs the repository's Go benchmarks and writes the
// results as JSON — a make-free wrapper so CI and PR descriptions can record
// ns/op (and the simulated metrics each benchmark reports) without scraping
// test output by hand.
//
// Usage:
//
//	benchjson [-bench REGEXP] [-pkg PKG] [-benchtime 1x] [-count 1] [-shards N] [-out BENCH_2.json]
//	          [-allocs-baseline FILE -allocs-bound PCT]
//
// It shells out to `go test -run ^$ -bench ...` (the toolchain is a build
// prerequisite of this repository, so no extra tooling is needed) and parses
// the standard benchmark output lines.
//
// With -allocs-baseline, benchjson also gates allocations: FILE is an earlier
// benchjson output, and the run fails when any benchmark it lists allocates
// more than PCT percent above its baseline allocs/op. Each side's figure is
// the minimum over its -count repetitions, because goroutine and channel
// bookkeeping in the Go runtime adds a little run-to-run noise on top of the
// deterministic count. ns/op is printed beside each figure but never gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cliflags"
)

// Result is one benchmark's parsed outcome. WallS is the measured loop's
// total wall-clock (ns/op × iterations) and is emitted for every benchmark
// line — single-machine runs and fleet sweeps alike — so scaling curves can
// be plotted without re-deriving it. B/op and allocs/op get first-class
// fields (matching the names the BENCH_*.json records use) instead of
// landing in the free-form metrics map.
type Result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	WallS       float64            `json:"wall_s"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Output is the JSON document benchjson writes. GOMAXPROCS, NumCPU and
// Shards record the host parallelism the numbers were taken at — a sweep's
// wall-clock only reflects the executor's fan-out when the host has cores to
// fan out to, so cross-machine comparisons need this context.
type Output struct {
	Package    string   `json:"package"`
	Bench      string   `json:"bench"`
	BenchTime  string   `json:"benchtime"`
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Shards     int      `json:"shards"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	bench := fs.String("bench", ".", "benchmark regexp passed to -bench")
	pkg := fs.String("pkg", ".", "package to benchmark")
	benchtime := fs.String("benchtime", "1x", "passed to -benchtime")
	count := fs.Int("count", 1, "passed to -count")
	out := fs.String("out", "BENCH_2.json", "output JSON file")
	cpuprofile := fs.String("cpuprofile", "", "passed through to go test: write the benchmarks' CPU profile here")
	memprofile := fs.String("memprofile", "", "passed through to go test: write the benchmarks' heap profile here")
	baseline := fs.String("allocs-baseline", "", "fail when a benchmark in this earlier benchjson output allocates more per op than it records (plus -allocs-bound)")
	bound := fs.Float64("allocs-bound", 0, "allowed allocs/op growth over -allocs-baseline, in percent")
	shardFlags := cliflags.AddShards(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	shards := shardFlags.Resolve()

	testArgs := []string{"test", "-run", "^$",
		"-bench", *bench, "-benchtime", *benchtime,
		"-count", strconv.Itoa(*count)}
	if *cpuprofile != "" {
		testArgs = append(testArgs, "-cpuprofile", *cpuprofile)
	}
	if *memprofile != "" {
		testArgs = append(testArgs, "-memprofile", *memprofile)
	}
	if *baseline != "" {
		testArgs = append(testArgs, "-benchmem")
	}
	cmd := exec.Command("go", append(testArgs, *pkg)...)
	// Shard-sweeping benchmarks read REPRO_SHARDS to bench exactly the
	// host's configured parallelism instead of the default sweep.
	cmd.Env = append(os.Environ(), "REPRO_SHARDS="+strconv.Itoa(shards))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}

	results := Parse(string(raw))
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines in go test output")
	}
	doc := Output{
		Package:    *pkg,
		Bench:      *bench,
		BenchTime:  *benchtime,
		GoVersion:  goVersion(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     shards,
		NumCPU:     runtime.NumCPU(),
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	log.Printf("%d benchmarks -> %s", len(results), *out)
	if *baseline == "" {
		return nil
	}
	raw, err = os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	var base Output
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", *baseline, err)
	}
	return GateAllocs(os.Stdout, results, base.Benchmarks, *bound)
}

// GateAllocs compares the run's allocs/op with the baseline's, benchmark by
// benchmark, and writes one line per baseline benchmark to w. It returns an
// error naming every benchmark that is missing from the run or allocates
// more than boundPct percent above its baseline.
func GateAllocs(w io.Writer, run, baseline []Result, boundPct float64) error {
	got, want := leastAllocs(run), leastAllocs(baseline)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	var failed []string
	for _, name := range names {
		b := want[name]
		limit := b.AllocsPerOp * (1 + boundPct/100)
		r, ok := got[name]
		switch {
		case !ok:
			fmt.Fprintf(w, "allocs-gate FAIL %s: not in this run\n", name)
			failed = append(failed, name)
		case r.AllocsPerOp > limit:
			fmt.Fprintf(w, "allocs-gate FAIL %s: %.0f allocs/op > %.0f (baseline %.0f +%g%%), %.0f ns/op\n",
				name, r.AllocsPerOp, limit, b.AllocsPerOp, boundPct, r.NsPerOp)
			failed = append(failed, name)
		default:
			fmt.Fprintf(w, "allocs-gate ok   %s: %.0f allocs/op <= %.0f (baseline %.0f +%g%%), %.0f ns/op\n",
				name, r.AllocsPerOp, limit, b.AllocsPerOp, boundPct, r.NsPerOp)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("allocs/op gate failed for %s", strings.Join(failed, ", "))
	}
	return nil
}

// leastAllocs keeps, per benchmark name, the repetition with the fewest
// allocs/op; its ns/op rides along for the report.
func leastAllocs(results []Result) map[string]Result {
	m := make(map[string]Result, len(results))
	for _, r := range results {
		if cur, ok := m[r.Name]; !ok || r.AllocsPerOp < cur.AllocsPerOp {
			m[r.Name] = r
		}
	}
	return m
}

// Parse extracts benchmark results from `go test -bench` output. A line looks
// like:
//
//	BenchmarkName-8   3   12345678 ns/op   4.50 extra-metric   2 ops
//
// Lines that do not start with "Benchmark" are ignored. Results are sorted by
// name (stable across map-free parsing anyway, but explicit).
func Parse(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name, procs := splitProcs(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: name, Procs: procs, Iters: iters}
		// Remaining fields come in (value, unit) pairs.
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				r.NsPerOp = v
				r.WallS = v * float64(r.Iters) / 1e9
				ok = true
				continue
			}
			if unit == "B/op" {
				r.BytesPerOp = v
				continue
			}
			if unit == "allocs/op" {
				r.AllocsPerOp = v
				continue
			}
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
		if ok {
			results = append(results, r)
		}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results
}

// splitProcs splits "BenchmarkFoo-8" into ("BenchmarkFoo", 8).
func splitProcs(s string) (string, int) {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return s, 1
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return s, 1
	}
	return s[:i], n
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
