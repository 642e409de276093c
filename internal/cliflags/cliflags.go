// Package cliflags defines the flags shared by the iochar and stress
// commands — the cache, collective-I/O, burst, data-integrity/reliability,
// replication and shard knobs — so both binaries register identical flags
// with identical help text. The feature flags are shorthand for scenario
// fields: they parse straight into the scenario sections they stand for,
// and Fill writes those into the command's scenario, whose Validate and
// Build are the one mapping onto a study.
package cliflags

import (
	"flag"
	"runtime"

	"repro/internal/scenario"
)

// Features is the feature flag set.
type Features struct {
	cacheOn bool
	cache   scenario.CacheFeature
	coll    scenario.CollectiveFeature
	sched   string
	burstOn bool
	burst   scenario.BurstFeature

	corrupt string
	scrub   bool
	rel     scenario.ReliabilityFeature

	factor   int
	seed     uint64
	policy   string
	repairOn bool
	repair   scenario.RepairFeature
}

// AddFeatures registers the cache (-cache, -cache-mb, -prefetch),
// collective (-collective, -aggregators, -sched), burst (-burst, -burst-mb,
// -burst-drain, -compress), reliability (-corrupt, -scrub, -deadline,
// -retries) and replication (-rf, -placement-seed, -read-policy, -repair,
// -repair-mb-s, -repair-give-up) flags on fs.
func AddFeatures(fs *flag.FlagSet) *Features {
	f := &Features{
		cache:  scenario.CacheFeature{Enabled: true, Prefetch: new(bool)},
		burst:  scenario.BurstFeature{Enabled: true, MB: new(float64), Compress: new(float64)},
		rel:    scenario.ReliabilityFeature{Enabled: true},
		repair: scenario.RepairFeature{Enabled: true, BandwidthMBs: new(float64)},
	}
	fs.BoolVar(&f.cacheOn, "cache", false, "attach a block cache with pattern-driven prefetch to every I/O node")
	fs.Float64Var(&f.cache.MB, "cache-mb", 8, "per-node cache capacity in MB (with -cache)")
	fs.BoolVar(f.cache.Prefetch, "prefetch", true, "enable pattern-driven prefetch (with -cache)")

	fs.BoolVar(&f.coll.Enabled, "collective", false, "aggregate each M_RECORD/M_SYNC round's requests into stripe-aligned bulk transfers (two-phase collective I/O)")
	fs.IntVar(&f.coll.Aggregators, "aggregators", 0, "aggregator nodes per collective round (0 = one per I/O node; with -collective)")
	fs.StringVar(&f.sched, "sched", "", "I/O-node disk scheduling policy: fcfs, cscan, sstf, random (empty = legacy FIFO queue)")

	fs.BoolVar(&f.burstOn, "burst", false, "absorb checkpoint and M_LOG writes into per-compute-node burst logs, drained to the PFS asynchronously")
	fs.Float64Var(f.burst.MB, "burst-mb", 64, "per-node burst-log capacity in MB (with -burst)")
	fs.Float64Var(&f.burst.DrainMBs, "burst-drain", 0, "per-node drain bandwidth cap in MB/s, 0 = PFS-limited (with -burst)")
	fs.Float64Var(f.burst.Compress, "compress", 1.8, "drain-stage compression ratio, logical/wire; 1 disables the stage (with -burst)")

	fs.StringVar(&f.corrupt, "corrupt", "", "inject silent data corruption: comma-separated classes (bit-rot, torn-write, misdirected-write) or 'all'; enables the checksum layer")
	fs.BoolVar(&f.scrub, "scrub", false, "run the background scrubber on every I/O node (enables the checksum layer)")
	fs.Float64Var(&f.rel.DeadlineS, "deadline", 0, "per-request deadline in seconds (enables the client reliability layer)")
	fs.IntVar(&f.rel.Retries, "retries", 0, "max client retries after a corrupt read, >= 1 (0 uses the reliability layer's default)")

	fs.IntVar(&f.factor, "rf", 0, "replication factor 1..4, zone-aware placement (0 defers to -replicate; needs failover)")
	fs.Uint64Var(&f.seed, "placement-seed", 0, "seed perturbing the replica ring's within-zone node order (0 = index order)")
	fs.StringVar(&f.policy, "read-policy", "", "replicated read policy: primary-first (default), any-replica, quorum")
	fs.BoolVar(&f.repairOn, "repair", false, "run the background repair daemon restoring redundancy after outages (needs replication)")
	fs.Float64Var(f.repair.BandwidthMBs, "repair-mb-s", 32, "repair daemon bandwidth throttle in MB/s, 0 = unthrottled (with -repair)")
	fs.Float64Var(&f.repair.GiveUpS, "repair-give-up", 0, "abandon a repair entry still queued after this many seconds, 0 = never (with -repair)")
	return f
}

// AddFlushOnFail additionally registers -flush-on-fail (the stress command's
// outage-drain knob).
func (f *Features) AddFlushOnFail(fs *flag.FlagSet) {
	fs.BoolVar(&f.cache.FlushOnFail, "flush-on-fail", false, "drain dirty cache blocks synchronously when a node fails instead of losing them")
}

// Fill writes the feature flags into sc, whose failover section the
// command has set: nil is Build's default, failover on and mirrored.
func (f *Features) Fill(sc *scenario.Scenario) {
	if f.cacheOn {
		c := f.cache
		sc.Features.Cache = &c
	}
	// -aggregators without -collective leaves a disabled section for
	// Validate to reject.
	if f.coll.Enabled || f.coll.Aggregators != 0 {
		c := f.coll
		sc.Features.Collective = &c
	}
	sc.Features.Sched = f.sched
	if f.burstOn {
		b := f.burst
		sc.Features.Burst = &b
	}

	// Scheduled corruption gets the checksum, reliability and failover
	// layers it needs from Build.
	if f.corrupt != "" {
		sc.Chaos.Corrupt = &scenario.Corrupt{Classes: f.corrupt}
	}
	if f.scrub {
		sc.Features.Integrity = &scenario.IntegrityFeature{Enabled: true, Scrub: true}
	}
	if f.rel.DeadlineS > 0 || f.rel.Retries > 0 {
		rel := f.rel
		sc.Features.Reliability = &rel
	}

	// Corruption turns a disabled failover section on as Build would,
	// mirrored; -rf > 1 turns it on unmirrored, as the help says. A section
	// that stays disabled passes the replication knobs to Validate, which
	// rejects them: pfs keeps one copy without failover.
	fo := sc.Features.Failover
	switch {
	case fo == nil, !fo.Enabled && f.corrupt != "":
		fo = &scenario.FailoverFeature{Enabled: true, Replicate: true}
	case !fo.Enabled && f.factor > 1:
		fo = &scenario.FailoverFeature{Enabled: true}
	}
	fo.Factor, fo.PlacementSeed, fo.ReadPolicy = f.factor, f.seed, f.policy
	if f.repairOn {
		rp := f.repair
		fo.Repair = &rp
	}
	sc.Features.Failover = fo
}

// Shards bundles the sharded-engine flags every binary that can run on the
// conservative fabric shares. Results are byte-identical at any -shards
// setting — the flag only bounds how many shards execute concurrently.
type Shards struct {
	N *int
}

// AddShards registers -shards on fs.
func AddShards(fs *flag.FlagSet) *Shards {
	return &Shards{
		N: fs.Int("shards", 0, "fabric shards executing concurrently: 0 = GOMAXPROCS, 1 = the serial oracle (results identical at any setting)"),
	}
}

// Count returns the raw flag value (0 = auto), the form core.FleetOptions
// takes.
func (s *Shards) Count() int { return *s.N }

// Resolve returns the effective worker count: GOMAXPROCS when the flag is 0
// or negative.
func (s *Shards) Resolve() int {
	if *s.N < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return *s.N
}
