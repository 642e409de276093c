// Command perfbench is the repository's benchmark. It runs one named
// workload closed-loop for a fixed time, checks every study's results, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics
// of a separate traced run), ending with one JSON line:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/exec"
)

const (
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 5
	// minPasses is the fewest timed passes a run makes, however short.
	minPasses = 3
	// rssPasses is how many timed passes peak_rss_mb is the median over.
	rssPasses = 20
	// outDir receives the traced run's span trace and CPU profile; run.sh
	// builds into the same directory.
	outDir = ".bench_build"
	// maxFailures bounds how many failure messages a run prints.
	maxFailures = 10
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper, whatif or sharded")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	writeRef := fs.Bool("write-reference", false, "record this run's outcomes as the reference (default seed only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if *writeRef && *seed != defaultSeed {
		return fmt.Errorf("--write-reference needs the default seed %d", defaultSeed)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}

	runtime.GOMAXPROCS(min(hostParallel, runtime.NumCPU()))
	exec.SetWorkers(hostParallel)

	b := &bench{workload: wl.name, baseline: map[string]outcome{}}
	if *seed == defaultSeed && !*writeRef {
		b.reference = refs[wl.name]
		if b.reference == nil {
			b.reference = map[string]outcome{}
		}
	}

	// Set-up: load and validate the inputs, then one untimed warm-up pass.
	var setup setupTimes
	var studies []study
	for i := 0; i < setupReps; i++ {
		cpu0, t0 := processCPU(), time.Now()
		studies, err = wl.load(*seed)
		if err != nil {
			return fmt.Errorf("load %s: %w", wl.name, err)
		}
		if _, err := b.pass(studies, nil); err != nil {
			return err
		}
		setup.cpu = append(setup.cpu, (processCPU() - cpu0).Seconds())
		setup.wall = append(setup.wall, time.Since(t0).Seconds())
	}

	res := result{Metrics: map[string]metric{}}
	measure := time.Duration(*seconds) * time.Second
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d num_cpu=%d studies/pass=%d\n",
		wl.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), len(studies))
	if *trace == 0 {
		passes, err := b.loop(studies, measure, nil)
		if err != nil {
			return err
		}
		endToEnd(out, res.Metrics, studies, passes, setup)
	} else {
		if err := b.traced(out, res.Metrics, studies, measure, *seed); err != nil {
			return err
		}
	}

	if *writeRef {
		if err := writeReference(wl.name, b.baseline); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s for %s\n", referencePath, wl.name)
	}
	for _, msg := range b.failures {
		fmt.Fprintln(out, "FAIL", msg)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	fmt.Fprintf(out, "  %-36s %.4f (%d of %d studies)\n", "failed_frac", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// bench runs passes and keeps the correctness ledger.
type bench struct {
	workload  string
	baseline  map[string]outcome // each study's first outcome
	reference map[string]outcome // nil unless running at the default seed
	attempted int
	failed    int
	failures  []string
}

func (b *bench) fail(study string, err error) {
	b.failed++
	if len(b.failures) < maxFailures {
		b.failures = append(b.failures, fmt.Sprintf("%s/%s: %v", b.workload, study, err))
	}
}

// passResult is one timed pass over a workload's studies.
type passResult struct {
	wall, cpu time.Duration
	peakRSS   float64 // MB, the pass's resident-set high-water mark
	parts     map[string]time.Duration
	// Heap bytes and objects allocated inside the timed calls.
	allocBytes, allocObjects uint64
	total                    outcome
}

// harnessLabel marks the benchmark's own work between timed calls, which the
// CPU profile leaves out.
var harnessLabel = pprof.Labels("bench", "harness")

// pass runs every study once. Only the studies' run calls are timed; each
// study is verified right after it runs and held to its first outcome and,
// at the default seed, to the reference.
func (b *bench) pass(studies []study, sp *spans) (passResult, error) {
	pprof.Do(context.Background(), harnessLabel, func(context.Context) { debug.FreeOSMemory() })
	if err := resetPeakRSS(); err != nil {
		return passResult{}, err
	}
	res := passResult{parts: map[string]time.Duration{}}
	pid := sp.begin("pass")
	defer sp.end(pid)
	for _, st := range studies {
		b.attempted++
		id := sp.begin(st.name)
		bytes0, objects0 := heapAllocs()
		cpu0, t0 := processCPU(), time.Now()
		verify, err := st.run(sp)
		d := time.Since(t0)
		res.cpu += processCPU() - cpu0
		sp.end(id)
		res.wall += d
		res.parts[st.part] += d
		bytes1, objects1 := heapAllocs()
		res.allocBytes += bytes1 - bytes0
		res.allocObjects += objects1 - objects0
		if err != nil {
			b.fail(st.name, err)
			continue
		}
		var o outcome
		pprof.Do(context.Background(), harnessLabel, func(context.Context) { o, err = verify() })
		res.total.sum(o)
		if err != nil {
			b.fail(st.name, err)
			continue
		}
		first, seen := b.baseline[st.name]
		if !seen {
			b.baseline[st.name] = o
			first = o
		}
		switch ref, hasRef := b.reference[st.name]; {
		case !first.sameAs(o):
			b.fail(st.name, fmt.Errorf("outcome differs from the first pass: %s", o.diff(first)))
		case b.reference != nil && !hasRef:
			b.fail(st.name, errors.New("no reference outcome recorded"))
		case b.reference != nil && !ref.sameAs(o):
			b.fail(st.name, fmt.Errorf("outcome differs from the reference: %s", o.diff(ref)))
		}
	}
	var err error
	res.peakRSS, err = peakRSSMB()
	return res, err
}

// loop runs passes until d has elapsed, and at least minPasses.
func (b *bench) loop(studies []study, d time.Duration, sp *spans) ([]passResult, error) {
	var passes []passResult
	deadline := time.Now().Add(d)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		p, err := b.pass(studies, sp)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func walls(passes []passResult) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.wall.Seconds()
	}
	return out
}

// printDist prints a sample's median, quartiles and count.
func printDist(out io.Writer, name, unit string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	fmt.Fprintf(out, "  %-36s %.6f %s  (q1 %.6f, q3 %.6f, n=%d)\n", name, q2, unit, q1, q3, len(xs))
}

// setupTimes are the CPU and wall seconds of each set-up.
type setupTimes struct{ cpu, wall []float64 }

// endToEnd fills the untraced run's metrics and prints them, with the
// wall-clock times and per-part timings of the workload.
//
// The gated times are process CPU seconds. On a shared virtual machine the
// hypervisor's steal time stretches wall-clock time by tens of percent for
// minutes at a time, while the kernel leaves it out of process CPU time.
func endToEnd(out io.Writer, m map[string]metric, studies []study, passes []passResult, setup setupTimes) {
	cpus := make([]float64, len(passes))
	for i, p := range passes {
		cpus[i] = p.cpu.Seconds()
	}
	cpu := median(cpus)
	ops := passes[len(passes)-1].total.Ops
	m["cpu_s"] = metric{cpu, "s"}
	m["sim_ops_per_cpu_s"] = metric{float64(ops) / cpu, "1/s"}
	m["setup_s"] = metric{median(setup.cpu), "s"}
	// Memory counts a fixed number of passes, so a run that fits more passes
	// into its time does not read higher where a workload leaks.
	var rss []float64
	for _, p := range passes[:min(rssPasses, len(passes))] {
		rss = append(rss, p.peakRSS)
	}
	m["peak_rss_mb"] = metric{median(rss), "MB"}

	printDist(out, "cpu_s", "s", cpus)
	fmt.Fprintf(out, "  %-36s %.1f 1/s  (%d simulated I/O calls per pass)\n", "sim_ops_per_cpu_s", m["sim_ops_per_cpu_s"].Value, ops)
	printDist(out, "setup_s", "s", setup.cpu)
	printDist(out, "peak_rss_mb", "MB", rss)
	wall := walls(passes)
	printDist(out, "wall_s", "s", wall)
	fmt.Fprintf(out, "  %-36s %.1f 1/s\n", "sim_ops_per_s", float64(ops)/median(wall))
	printDist(out, "setup_wall_s", "s", setup.wall)
	for i, st := range studies {
		if i > 0 && studies[i-1].part == st.part {
			continue // a part's studies are adjacent
		}
		xs := make([]float64, len(passes))
		for j, p := range passes {
			xs[j] = p.parts[st.part].Seconds()
		}
		printDist(out, st.part+"_s", "s", xs)
	}
}

// traced is the per-layer run: half the time untraced, half with spans, a
// CPU profile and runtime metrics, then the replay probes.
func (b *bench) traced(out io.Writer, m map[string]metric, studies []study, d time.Duration, seed uint64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	reports, err := captureReports()
	if err != nil {
		return err
	}
	plain, err := b.loop(studies, d/2, nil)
	if err != nil {
		return err
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.workload, seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	sp := newSpans()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	before, g0 := sampleRuntime(), runtime.NumGoroutine()
	tracedPasses, err := b.loop(studies, d/2, sp)
	after, g1 := sampleRuntime(), runtime.NumGoroutine()
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	spansPerPass := float64(len(sp.list)) / float64(len(tracedPasses))

	probes, err := replayProbes(reports, sp)
	if err != nil {
		return err
	}
	shares, err := cpuShares(prof.Name())
	if err != nil {
		return err
	}
	if err := sp.writeChrome(base + ".spans.json"); err != nil {
		return err
	}

	vals := map[string]float64{}
	for mod, v := range shares {
		vals[mod+".cpu_share"] = v
	}
	for _, src := range []map[string]float64{
		runtimeMetrics(before, after),
		probes,
		layerCounters(tracedPasses[len(tracedPasses)-1].total),
	} {
		for k, v := range src {
			vals[k] = v
		}
	}
	ops := tracedPasses[len(tracedPasses)-1].total.Ops * int64(len(tracedPasses))
	if ops > 0 {
		vals["core.run_us_per_op"] = float64(sp.total("run").Microseconds()) / float64(ops)
	} else {
		vals["core.run_us_per_op"] = 0
	}
	var allocMB, allocs []float64
	for _, p := range tracedPasses {
		allocMB = append(allocMB, float64(p.allocBytes)/(1<<20))
		allocs = append(allocs, float64(p.allocObjects))
	}
	vals["runtime.alloc_mb"] = median(allocMB)
	vals["runtime.allocs"] = median(allocs)
	plainWall, tracedWall := median(walls(plain)), median(walls(tracedPasses))
	vals["trace.untraced_wall_s"] = plainWall
	vals["trace.wall_s"] = tracedWall
	vals["trace.cost_frac"] = tracedWall/plainWall - 1
	vals["trace.spans_per_pass"] = spansPerPass
	vals["runtime.goroutines_per_pass"] = float64(g1-g0) / float64(len(tracedPasses))

	for _, def := range perLayer {
		v, ok := vals[def.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", def.name)
		}
		m[def.name] = metric{v, def.unit}
		fmt.Fprintf(out, "  %-36s %.6g %s\n", def.name, v, def.unit)
	}
	fmt.Fprintf(out, "span self time over %d traced passes (%s.spans.json):\n", len(tracedPasses), base)
	self := sp.selfTimes()
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(out, "  %-36s %.6f s\n", name, self[name].Seconds())
	}
	return nil
}

// metricDef names a per-layer metric and its unit, in report order.
type metricDef struct{ name, unit string }

// perLayer is every metric a traced run reports; BENCHMARK.json lists the
// same names.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, mod := range append(layerModules, "other", "bench") {
		defs = append(defs, metricDef{mod + ".cpu_share", "share"})
	}
	return append(defs,
		metricDef{"runtime.sched_latency_p50_us", "us"},
		metricDef{"runtime.sched_latency_p99_us", "us"},
		metricDef{"runtime.gc_cpu_frac", "share"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.allocs", "count"},
		metricDef{"runtime.cpu_util", "cpus"},
		metricDef{"runtime.goroutines_per_pass", "count"},
		metricDef{"pablo.record_ns_per_event", "ns"},
		metricDef{"sddf.write_ns_per_event", "ns"},
		metricDef{"sddf.read_ns_per_event", "ns"},
		metricDef{"sddf.bytes_per_event", "bytes"},
		metricDef{"analysis.summarize_ns_per_event", "ns"},
		metricDef{"analysis.figures_s", "s"},
		metricDef{"workload.machine_build_ms", "ms"},
		metricDef{"scenario.load_ms", "ms"},
		metricDef{"core.run_us_per_op", "us"},
		metricDef{"apps.ops", "count"},
		metricDef{"core.sim_s", "sim-s"},
		metricDef{"pfs.io_node_s", "sim-s"},
		metricDef{"ionode.phys_requests", "count"},
		metricDef{"ionode.queue_peak", "count"},
		metricDef{"cache.hit_ratio", "share"},
		metricDef{"collective.requests_out_per_in", "ratio"},
		metricDef{"integrity.detected", "count"},
		metricDef{"integrity.repaired", "count"},
		metricDef{"burst.drained_mb", "MB"},
		metricDef{"pfs.failover_retries", "count"},
		metricDef{"pfs.repair_mb", "MB"},
		metricDef{"fault.incidents", "count"},
		metricDef{"sim.fabric_windows", "count"},
		metricDef{"sim.fabric_mail", "count"},
		metricDef{"sim.windows_per_mail", "ratio"},
		metricDef{"trace.untraced_wall_s", "s"},
		metricDef{"trace.wall_s", "s"},
		metricDef{"trace.cost_frac", "share"},
		metricDef{"trace.spans_per_pass", "count"},
	)
}()
