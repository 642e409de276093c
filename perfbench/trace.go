package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	name       string
	id, parent int
	start, end time.Duration
}

// spans records spans in memory. A nil *spans records nothing, which is the
// untraced configuration. Spans nest by call order on the benchmark's own
// goroutine; the calls they wrap may fan out internally.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{name: name, id: id, parent: parent, start: time.Since(s.t0)})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].end = time.Since(s.t0)
	s.stack = s.stack[:len(s.stack)-1]
}

// total is the summed duration of every span with this name.
func (s *spans) total(name string) time.Duration {
	var d time.Duration
	for _, sp := range s.list {
		if sp.name == name {
			d += sp.end - sp.start
		}
	}
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover.
func (s *spans) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, sp := range s.list {
		d := sp.end - sp.start
		self[sp.name] += d
		if sp.parent >= 0 {
			self[s.list[sp.parent].name] -= d
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open.
func (s *spans) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(s.list))
	for i, sp := range s.list {
		evs[i] = event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": sp.id, "parent": sp.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerModules are the repository packages the CPU profile is grouped by,
// plus the Go runtime. Samples elsewhere count as "other" (the standard
// library and the remaining repository packages) or "bench" (this harness).
var layerModules = []string{
	"sim", "mesh", "ionode", "disk", "cache", "pfs", "pablo", "analysis", "sddf",
	"collective", "integrity", "burst", "fault", "core", "scenario", "workload",
	"apps", "runtime",
}

// moduleOf maps a profiled function name to its layer.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		rest := pkg[i+1:]
		if j := strings.Index(rest, "."); j >= 0 {
			pkg = pkg[:i+1+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/apps/"):
		return "apps"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, m := range layerModules {
			if m == name {
				return m
			}
		}
	case pkg == "repro":
		return "core"
	}
	return "other"
}

// cpuShares runs `go tool pprof -top` on a CPU profile and returns each
// layer's share of the flat samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-trim=false", "-unit=ms",
		"-tagignore=bench=harness", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		flat[moduleOf(strings.Join(f[5:], " "))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	shares := map[string]float64{}
	for _, m := range append(layerModules, "other", "bench") {
		shares[m] = flat[m] / total
	}
	return shares, nil
}

// runtimeSample is a snapshot of the process counters the traced run
// differences across its measured window.
type runtimeSample struct {
	at      time.Time
	cpu     time.Duration // user + system CPU of the process
	samples []metrics.Sample
}

var runtimeMetricNames = []string{
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := runtimeSample{at: time.Now(), samples: make([]metrics.Sample, len(runtimeMetricNames))}
	for i, n := range runtimeMetricNames {
		s.samples[i].Name = n
	}
	metrics.Read(s.samples)
	s.cpu = processCPU()
	return s
}

// heapAllocs reads the cumulative bytes and objects the Go heap has
// allocated.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the kernel's resident-set high-water mark for this
// process back to its current resident set (Linux).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark since the last
// resetPeakRSS (Linux).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runtimeMetrics differences two snapshots into the runtime layer's
// metrics.
func runtimeMetrics(a, b runtimeSample) map[string]float64 {
	val := func(s runtimeSample, i int) float64 {
		v := s.samples[i].Value
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	delta := func(i int) float64 { return val(b, i) - val(a, i) }
	used := delta(2) - delta(3)
	gcFrac := 0.0
	if used > 0 {
		gcFrac = delta(1) / used
	}
	lat := func(q float64) float64 { return histQuantile(a.samples[0].Value, b.samples[0].Value, q) }
	wall := b.at.Sub(a.at).Seconds()
	return map[string]float64{
		"runtime.sched_latency_p50_us": lat(0.5) * 1e6,
		"runtime.sched_latency_p99_us": lat(0.99) * 1e6,
		"runtime.gc_cpu_frac":          gcFrac,
		"runtime.cpu_util":             (b.cpu - a.cpu).Seconds() / wall,
	}
}

// histQuantile returns quantile q of the samples a cumulative histogram
// gained between two reads, interpolating linearly inside the bucket the
// quantile falls in.
func histQuantile(a, b metrics.Value, q float64) float64 {
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	counts := make([]float64, len(hb.Counts))
	var n float64
	for i := range hb.Counts {
		counts[i] = float64(hb.Counts[i])
		if i < len(ha.Counts) {
			counts[i] -= float64(ha.Counts[i])
		}
		n += counts[i]
	}
	target := q * n
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+c < target {
			cum += c
			continue
		}
		lo, hi := hb.Buckets[i], hb.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return lo + (hi-lo)*(target-cum)/c
	}
	return 0
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
