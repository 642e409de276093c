package core

import (
	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// meanFor returns the mean per-operation node time over the labelled summary
// rows (e.g. "Read" + "AsynchRead" for the paper's read columns).
func meanFor(s analysis.OpSummary, labels ...string) (sim.Time, int64) {
	var n int64
	var t sim.Time
	for _, l := range labels {
		if r := s.Row(l); r != nil {
			n += r.Count
			t += r.NodeTime
		}
	}
	if n == 0 {
		return 0, 0
	}
	return t / sim.Time(n), n
}

// compare fills the cache-side ratios of a comparison row from per-node
// stats.
func compare(name, op string, base, cached *Report, labels ...string) analysis.CacheComparison {
	bm, n := meanFor(base.Summary, labels...)
	cm, _ := meanFor(cached.Summary, labels...)
	row := analysis.CacheComparison{
		Name: name, Op: op, Ops: n,
		BaseMean: bm, CachedMean: cm,
		BaseWall: base.Wall, CachedWall: cached.Wall,
	}
	if cached.Cache != nil {
		t := cached.Cache.Total
		row.HitRatio = t.HitRatio()
		row.PrefetchAccuracy = t.PrefetchAccuracy()
		row.Coalescing = t.Coalescing()
	}
	return row
}

// CacheSweep runs each of the paper's three applications twice — cache
// disabled, then enabled with ccfg — and reports the mean read-latency
// change. It is the §8 what-if quantified: ESCAT's small sequential reads
// and HTF's record-oriented integral traffic are the patterns an I/O-node
// cache with pattern-driven prefetch serves well.
func CacheSweep(small bool, ccfg cache.Config) ([]analysis.CacheComparison, error) {
	ccfg.Enabled = true
	apps := Apps()
	out, err := runSweep("cache sweep", pairCells(apps, [2]string{"base", "cached"}, func(app AppID, side int) Plan {
		study := sweepStudy(app, small)
		if side == 1 {
			study.Machine.PFS.Cache = ccfg
		}
		return job(study)
	}), nil, final)
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.CacheComparison, 0, len(apps))
	for i, app := range apps {
		rows = append(rows, compare(string(app), "Read", out[2*i], out[2*i+1], "Read", "AsynchRead"))
	}
	return rows, nil
}

// modeCell is one row of a mode-by-mode comparison sweep: the workload plus
// the summary labels its latency column reads.
type modeCell struct {
	name   string
	op     string
	labels []string
	scfg   workload.SyntheticConfig
}

func (c modeCell) String() string { return c.name }

// plan is the job that runs the cell's synthetic workload on a fresh machine
// with the PFS configuration pcfg.
func (c modeCell) plan(pcfg pfs.Config) Plan {
	scfg := c.scfg
	return job(Study{
		App:       "synthetic",
		Machine:   workload.MachineConfig{ComputeNodes: scfg.Nodes, PFS: pcfg},
		KeepTrace: true,
		synth:     &scfg,
	})
}

// modePlans lists a mode sweep's [base, alt] jobs: each cell on the PFS
// configurations cfgs.
func modePlans(cells []modeCell, sides [2]string, cfgs [2]pfs.Config) []sweepCell {
	return pairCells(cells, sides, func(c modeCell, side int) Plan { return c.plan(cfgs[side]) })
}

// modeCells builds the six per-mode synthetic workloads shared by the cache
// and integrity mode sweeps.
func modeCells() []modeCell {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	cells := make([]modeCell, 0, len(modes))
	for _, mode := range modes {
		cell := modeCell{
			name:   mode.String(),
			op:     "Write",
			labels: []string{"Write"},
			scfg: workload.SyntheticConfig{
				Nodes:       8,
				Mode:        mode,
				RecordBytes: 4096,
				Records:     32,
			},
		}
		if mode == iotrace.ModeGlobal {
			cell.op, cell.labels = "Read", []string{"Read"}
		}
		cells = append(cells, cell)
	}
	return cells
}

// ModeCacheSweep compares cached against uncached runs of one synthetic
// workload (eight nodes moving fixed records through a shared file) under
// all six PFS access modes, plus a fully random read workload whose working
// set exceeds the cache — the control showing the cache buys nothing without
// locality.
func ModeCacheSweep(ccfg cache.Config) ([]analysis.CacheComparison, error) {
	ccfg.Enabled = true
	base := pfs.DefaultConfig()
	cachedCfg := base
	cachedCfg.Cache = ccfg

	cells := modeCells()
	// Control: uniform random 64 KB reads over a working set two orders of
	// magnitude beyond the per-node cache — every access misses, so the
	// cached and uncached runs should be indistinguishable.
	capBytes := ccfg.Normalized(base.StripeUnit).CapacityBytes
	cells = append(cells, modeCell{
		name:   "random-read",
		op:     "Read",
		labels: []string{"Read"},
		scfg: workload.SyntheticConfig{
			Nodes:       8,
			Mode:        iotrace.ModeAsync,
			RecordBytes: 64 * 1024,
			Records:     32,
			Read:        true,
			Random:      true,
			Seed:        42,
			FileBytes:   128 * capBytes,
		},
	})

	out, err := runSweep("mode sweep", modePlans(cells, [2]string{"base", "cached"}, [2]pfs.Config{base, cachedCfg}), nil, final)
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.CacheComparison, 0, len(cells))
	for i, cell := range cells {
		rows = append(rows, compare(cell.name, cell.op, out[2*i], out[2*i+1], cell.labels...))
	}
	return rows, nil
}
