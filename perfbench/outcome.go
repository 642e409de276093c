package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// outcome is what one study produced: simulated counters, which must repeat
// exactly, and a digest of the rendered results.
type outcome struct {
	Ops          int64    `json:"ops"`
	SimTime      sim.Time `json:"sim_ns"`
	IONodeTime   sim.Time `json:"io_node_ns"`
	PhysRequests int64    `json:"phys_requests"`
	QueuePeak    int64    `json:"queue_peak"`
	CacheHits    int64    `json:"cache_hits"`
	CacheMisses  int64    `json:"cache_misses"`
	CollIn       int64    `json:"collective_in"`
	CollOut      int64    `json:"collective_out"`
	Detected     int64    `json:"integrity_detected"`
	Repaired     int64    `json:"integrity_repaired"`
	DrainedBytes int64    `json:"burst_drained_bytes"`
	Retries      int64    `json:"failover_retries"`
	RepairBytes  int64    `json:"repair_bytes"`
	Incidents    int64    `json:"incidents"`
	Digest       string   `json:"digest"`

	// The fabric's protocol counters are reported but not compared.
	FabricWindows int64 `json:"-"`
	FabricMail    int64 `json:"-"`
}

// addReport folds one study report into the counters.
func (o *outcome) addReport(r *core.Report) {
	o.Ops += windowOps(r)
	o.SimTime += r.Wall
	o.IONodeTime += r.Summary.Total.NodeTime
	o.PhysRequests += r.PhysRequests
	for _, s := range r.Sched {
		o.QueuePeak = max(o.QueuePeak, int64(s.QueuePeak))
	}
	if r.Cache != nil {
		o.CacheHits += r.Cache.Total.Hits
		o.CacheMisses += r.Cache.Total.Misses
	}
	if r.Collective != nil {
		o.CollIn += r.Collective.RequestsIn
		o.CollOut += r.Collective.RequestsOut
	}
	if in := r.Integrity; in != nil {
		t := in.Total
		o.Detected += t.DetectedRead + t.DetectedScrub + t.DetectedRestart + t.DetectedAudit
		o.Repaired += t.RepairedParity + t.HealedByRewrite
	}
	if r.Burst != nil {
		o.DrainedBytes += r.Burst.Stats.DrainedBytes
	}
	o.Retries += r.Failover.Retries
	o.RepairBytes += r.Repair.BytesRepaired
	o.Incidents += int64(len(r.Incidents))
}

// windowOps counts a report's application I/O calls from the time-window
// reducer, which runs whether or not the full trace is kept.
func windowOps(r *core.Report) int64 {
	var n int64
	for _, w := range r.Windows.Windows() {
		for _, c := range w.Count {
			n += c
		}
	}
	return n
}

// sameAs reports whether two outcomes agree exactly on everything but the
// fabric's protocol counters.
func (o outcome) sameAs(q outcome) bool {
	o.FabricWindows, o.FabricMail = 0, 0
	q.FabricWindows, q.FabricMail = 0, 0
	return o == q
}

// diff lists the compared fields where o and q differ, as o's value then q's.
func (o outcome) diff(q outcome) string {
	fields := func(v outcome) map[string]any {
		m := map[string]any{}
		data, _ := json.Marshal(v) // a struct of numbers and a string always marshals
		_ = json.Unmarshal(data, &m)
		return m
	}
	a, b := fields(o), fields(q)
	var out []string
	for _, k := range sortedKeys(a) {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("%s %v != %v", k, a[k], b[k]))
		}
	}
	return strings.Join(out, ", ")
}

// layerCounters turns the summed outcomes of one pass into the simulated
// per-layer metrics.
func layerCounters(o outcome) map[string]float64 {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"apps.ops":                       float64(o.Ops),
		"core.sim_s":                     o.SimTime.Seconds(),
		"pfs.io_node_s":                  o.IONodeTime.Seconds(),
		"ionode.phys_requests":           float64(o.PhysRequests),
		"ionode.queue_peak":              float64(o.QueuePeak),
		"cache.hit_ratio":                ratio(o.CacheHits, o.CacheHits+o.CacheMisses),
		"collective.requests_out_per_in": ratio(o.CollOut, o.CollIn),
		"integrity.detected":             float64(o.Detected),
		"integrity.repaired":             float64(o.Repaired),
		"burst.drained_mb":               float64(o.DrainedBytes) / (1 << 20),
		"pfs.failover_retries":           float64(o.Retries),
		"pfs.repair_mb":                  float64(o.RepairBytes) / (1 << 20),
		"fault.incidents":                float64(o.Incidents),
		"sim.fabric_windows":             float64(o.FabricWindows),
		"sim.fabric_mail":                float64(o.FabricMail),
		"sim.windows_per_mail":           ratio(o.FabricWindows, o.FabricMail),
	}
}

// sum adds b's counters into a, for a whole pass. QueuePeak is a maximum.
func (o *outcome) sum(b outcome) {
	peak := max(o.QueuePeak, b.QueuePeak)
	o.Ops += b.Ops
	o.SimTime += b.SimTime
	o.IONodeTime += b.IONodeTime
	o.PhysRequests += b.PhysRequests
	o.CacheHits += b.CacheHits
	o.CacheMisses += b.CacheMisses
	o.CollIn += b.CollIn
	o.CollOut += b.CollOut
	o.Detected += b.Detected
	o.Repaired += b.Repaired
	o.DrainedBytes += b.DrainedBytes
	o.Retries += b.Retries
	o.RepairBytes += b.RepairBytes
	o.Incidents += b.Incidents
	o.FabricWindows += b.FabricWindows
	o.FabricMail += b.FabricMail
	o.QueuePeak = peak
}

// defaultSeed is the seed the reference values were recorded at.
const defaultSeed = 1

// referencePath is where --write-reference stores the reference values,
// relative to the repository root.
const referencePath = "perfbench/reference.json"

//go:embed reference.json
var referenceJSON []byte

// references maps workload → study → the outcome measured at defaultSeed.
type references map[string]map[string]outcome

func loadReferences() (references, error) {
	refs := references{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// writeReference replaces one workload's entry in the reference file.
func writeReference(workload string, recs map[string]outcome) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	refs[workload] = recs
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(data, '\n'), 0o644)
}
