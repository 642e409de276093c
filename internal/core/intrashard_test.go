package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/collective"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workerCounts is the intra-machine oracle's sweep: for a fixed partition
// topology, workers=1 drives every shard inline on one OS thread and is the
// serial reference every other worker bound must match byte for byte.
var workerCounts = []int{1, 2, 4, 8}

// shardedImage runs one partitioned study configuration and fingerprints
// everything the oracle holds fixed across worker counts: the trace digest,
// the headline report numbers, and the final file image with audit verdicts.
func shardedImage(t *testing.T, s Study, opts ShardedOptions) string {
	t.Helper()
	sr, rt, err := runSharded(s, opts)
	if err != nil {
		t.Fatalf("sharded (ioshards=%d workers=%d): %v", opts.IOShards, opts.Workers, err)
	}
	if sr.Fabric.Mail == 0 {
		t.Fatalf("partitioned run delivered no cross-shard mail — the RPC path is not engaged")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%d events=%d trace=%016x\n", sr.Wall, len(sr.Events), traceDigest(sr.Events))
	fmt.Fprintf(&b, "summary %+v\n", sr.Summary)
	fmt.Fprintf(&b, "incidents %d failover %+v repair %+v physreq %d\n",
		len(sr.Incidents), sr.Failover, sr.Repair, sr.PhysRequests)
	b.WriteString(fingerprint(rt.m.PFS))
	return b.String()
}

// TestShardedByteIdenticalAcrossWorkerCounts is the tentpole oracle for the
// three applications: one machine split over a frontend shard plus four I/O
// shards must produce byte-identical traces, reports, and file images at
// workers ∈ {1, 2, 4, 8}.
func TestShardedByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, app := range Apps() {
		s := SmallStudy(app)
		s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
		base := ShardedOptions{IOShards: 4, Workers: 1, Seed: 21}
		ref := shardedImage(t, s, base)
		if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
			t.Fatalf("%s: partitioned baseline audit not clean:\n%.600s", app, ref)
		}
		for _, w := range workerCounts[1:] {
			opts := base
			opts.Workers = w
			if got := shardedImage(t, s, opts); got != ref {
				t.Errorf("%s: partitioned results at workers=%d differ from the workers=1 oracle", app, w)
			}
		}
	}
}

// TestShardedFeatureStacksByteIdentical extends the oracle across the client-
// and server-side feature stacks the RPC seam has to carry: write-behind
// caching (drain mail), collective aggregation (shuffle then aggregated
// sweeps), and the burst tier (background drain traffic).
func TestShardedFeatureStacksByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Study)
	}{
		{"cache", func(s *Study) { s.Machine.PFS.Cache = cache.DefaultConfig() }},
		{"collective", func(s *Study) { s.Machine.PFS.Collective = collective.Config{Enabled: true} }},
		{"burst", func(s *Study) { s.Burst = identityBurstCfg() }},
	}
	for _, tc := range cases {
		s := SmallStudy(ESCAT)
		s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
		tc.mut(&s)
		base := ShardedOptions{IOShards: 2, Workers: 1, Seed: 3}
		ref := shardedImage(t, s, base)
		if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
			t.Fatalf("%s: baseline audit not clean:\n%.600s", tc.name, ref)
		}
		for _, w := range workerCounts[1:] {
			opts := base
			opts.Workers = w
			if got := shardedImage(t, s, opts); got != ref {
				t.Errorf("%s: results at workers=%d differ from the workers=1 oracle", tc.name, w)
			}
		}
	}
}

// TestShardedRF3ZoneOutageBurst is the feature-stack oracle under faults:
// RF=3 zone-aware replication riding out a full zone blackout — outage
// actuators on the owning shards, the repair planner reading the frontend
// mirror, repair copies crossing shards as RPCs, the burst tier draining
// through it all — must stay byte-identical at every worker count and still
// audit clean.
func TestShardedRF3ZoneOutageBurst(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
	s.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
	s.Machine.PFS.Replication = pfs.ReplicationConfig{
		Factor: 3, Repair: pfs.DefaultRepairConfig(),
	}
	threeZones(&s.Machine.PFS)
	s.Burst = identityBurstCfg()
	s.Faults = zoneOutagePlan(s.Machine.PFS.IONodes, 500*sim.Millisecond, sim.Second)
	s.FaultSeed = 11

	base := ShardedOptions{IOShards: 2, Workers: 1, Seed: 5}
	ref := shardedImage(t, s, base)
	if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
		t.Fatalf("RF3+outage+burst baseline audit not clean:\n%.600s", ref)
	}
	if strings.Contains(ref, "incidents 0 ") {
		t.Fatalf("zone outage was never realized — the oracle is not exercising the fault path:\n%.600s", ref)
	}
	for _, w := range workerCounts[1:] {
		opts := base
		opts.Workers = w
		if got := shardedImage(t, s, opts); got != ref {
			t.Errorf("RF3+outage+burst results at workers=%d differ from the workers=1 oracle", w)
		}
	}
}

// shardedModeImage builds a partitioned machine by hand and drives the
// phase-aligned synthetic workload under one access mode, fingerprinting the
// resulting file image.
func shardedModeImage(t *testing.T, mode iotrace.AccessMode, ioShards, workers int) string {
	t.Helper()
	fab := sim.NewFabric(workers)
	fe := fab.AddShard("frontend", 7)
	pcfg := pfs.DefaultConfig()
	pcfg.Integrity = integrity.Config{Enabled: true}
	srv, assign := partitionIONodes(fab, "", pcfg.IONodes, ioShards, 7)
	m, err := workload.NewPartitionedMachine(fe, srv, assign,
		workload.MachineConfig{ComputeNodes: 8, PFS: pcfg})
	if err != nil {
		t.Fatal(err)
	}
	m.PFS.SetRecorder(pablo.NewTracer(false))
	app, err := workload.NewSynthetic(workload.SyntheticConfig{
		Nodes:       8,
		Mode:        mode,
		RecordBytes: 4096,
		Records:     16,
		Barrier:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Launch(m, workload.WrapPFS(m.PFS)); err != nil {
		t.Fatalf("mode %v: launch: %v", mode, err)
	}
	if err := fab.Run(); err != nil {
		t.Fatalf("mode %v (workers=%d): %v", mode, workers, err)
	}
	if err := app.Err(); err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%d\n", m.Eng.Now())
	b.WriteString(fingerprint(m.PFS))
	return b.String()
}

// TestShardedModeByteIdenticalAcrossWorkerCounts extends the oracle across
// all six PFS access modes.
func TestShardedModeByteIdenticalAcrossWorkerCounts(t *testing.T) {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	for _, mode := range modes {
		ref := shardedModeImage(t, mode, 2, 1)
		if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
			t.Fatalf("mode %v: baseline audit not clean:\n%.400s", mode, ref)
		}
		for _, w := range workerCounts[1:] {
			if got := shardedModeImage(t, mode, 2, w); got != ref {
				t.Errorf("mode %v: results at workers=%d differ from the workers=1 oracle", mode, w)
			}
		}
	}
}

// TestShardedMatchesSerialImage holds the partitioned engine to the serial
// machine's logical outcome: timing (and hence the trace) legitimately
// differs — every request now pays at least one mesh lookahead — but the
// final file image, audit verdicts, per-node block coverage, and event count
// must match the plain serial run exactly.
func TestShardedMatchesSerialImage(t *testing.T) {
	for _, app := range Apps() {
		s := SmallStudy(app)
		s.Machine.PFS.Integrity = integrity.Config{Enabled: true}

		ss, rt, err := prepare(s, placement{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Run(rt.m, rt.fs, rt.app); err != nil {
			t.Fatal(err)
		}
		serial := finishReport(ss, rt, nil)
		serialImg := fingerprint(rt.m.PFS)

		sr, prt, err := runSharded(s, ShardedOptions{IOShards: 2, Workers: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(prt.m.PFS); got != serialImg {
			t.Errorf("%s: partitioned file image differs from the serial machine's:\nserial:\n%s\nsharded:\n%s",
				app, serialImg, got)
		}
		if len(sr.Events) != len(serial.Events) {
			t.Errorf("%s: partitioned run traced %d events, serial %d", app, len(sr.Events), len(serial.Events))
		}
	}
}

// fleetShardedImage is fleetImage for fleets whose cells are themselves
// partitioned (the launch-mail count check no longer applies: every RPC is
// mail too).
func fleetShardedImage(t *testing.T, s Study, opts FleetOptions) string {
	t.Helper()
	fr, cells, err := runFleet(s, opts)
	if err != nil {
		t.Fatalf("fleet (shards=%d ioshards=%d): %v", opts.Shards, opts.IOShards, err)
	}
	if fr.Fabric.Mail <= int64(opts.Cells) {
		t.Fatalf("fleet delivered %d mails — partitioned cells should add RPC traffic past the %d launches",
			fr.Fabric.Mail, opts.Cells)
	}
	return fleetFingerprint(fr, cells)
}

// TestFleetIOShardsByteIdentical composes the two sharding axes: a fleet of
// cells each internally partitioned must stay byte-identical across the
// worker bound, and the fabric must carry 1 + Cells×(1+IOShards) shards.
func TestFleetIOShardsByteIdentical(t *testing.T) {
	s := SmallStudy(HTF)
	s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
	base := FleetOptions{Cells: 2, Stagger: 20 * sim.Millisecond, Shards: 1, Seed: 42, IOShards: 2}
	ref := fleetShardedImage(t, s, base)
	if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
		t.Fatalf("partitioned-fleet baseline audit not clean:\n%.600s", ref)
	}
	for _, shards := range []int{2, 8} {
		opts := base
		opts.Shards = shards
		if got := fleetShardedImage(t, s, opts); got != ref {
			t.Errorf("partitioned-fleet results at shards=%d differ from the serial oracle", shards)
		}
	}
}

// TestShardedRejectsUnsupportedFaults pins the partitioned engine's two
// refusal paths: NodeLoss (no way to halt all shards mid-run) and
// DiskFailure combined with replication repair (the planner would need
// cross-shard array reads).
func TestShardedRejectsUnsupportedFaults(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.Faults = fault.Plan{Events: []fault.Event{
		{Kind: fault.NodeLoss, At: sim.Second, Node: 0},
	}}
	if _, err := RunSharded(s, ShardedOptions{IOShards: 2, Workers: 1}); err == nil ||
		!strings.Contains(err.Error(), "NodeLoss") {
		t.Fatalf("NodeLoss on a partitioned machine: got err %v, want a NodeLoss rejection", err)
	}

	s = SmallStudy(ESCAT)
	s.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
	s.Machine.PFS.Replication = pfs.ReplicationConfig{Factor: 3, Repair: pfs.DefaultRepairConfig()}
	threeZones(&s.Machine.PFS)
	s.Faults = fault.Plan{Events: []fault.Event{
		{Kind: fault.DiskFailure, At: sim.Second, Node: 0},
	}}
	if _, err := RunSharded(s, ShardedOptions{IOShards: 2, Workers: 1}); err == nil ||
		!strings.Contains(err.Error(), "DiskFailure") {
		t.Fatalf("DiskFailure+repair on a partitioned machine: got err %v, want a rejection", err)
	}
}
