package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/integrity"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// shardCounts is the oracle's sweep: shards=1 is the serial reference every
// other count must match byte for byte.
var shardCounts = []int{1, 2, 4, 8}

// fleetFingerprint renders everything the acceptance criteria hold fixed
// across shard counts: each cell's final file image (with audit verdicts and
// per-node checksum coverage), its full trace digest, and the headline
// report numbers.
func fleetFingerprint(fr *FleetReport, images []string) string {
	var b strings.Builder
	for i, image := range images {
		r := fr.Cells[i]
		fmt.Fprintf(&b, "== cell %d start=%d wall=%d events=%d trace=%016x\n",
			i, fr.Starts[i], r.Wall, len(r.Events), traceDigest(r.Events))
		fmt.Fprintf(&b, "summary %+v\n", r.Summary)
		fmt.Fprintf(&b, "incidents %d failover %+v repair %+v\n",
			len(r.Incidents), r.Failover, r.Repair)
		b.WriteString(image)
	}
	fmt.Fprintf(&b, "makespan %d\n", fr.Makespan)
	return b.String()
}

// traceDigest hashes a rendered event trace; two traces with equal digests
// and equal lengths are identical for the oracle's purposes.
func traceDigest(events []iotrace.Event) uint64 {
	h := fnv.New64a()
	for i := range events {
		fmt.Fprintf(h, "%+v\n", events[i])
	}
	return h.Sum64()
}

// fleetImage runs one fleet configuration and fingerprints it.
func fleetImage(t *testing.T, s Study, opts FleetOptions) string {
	t.Helper()
	images := make([]string, opts.Cells)
	_, fr, err := Execute(Plan{Study: s, Fleet: opts, inspect: func(cell int, fs *pfs.FileSystem) {
		images[cell] = fingerprint(fs)
	}})
	if err != nil {
		t.Fatalf("fleet (shards=%d): %v", opts.Shards, err)
	}
	if want := int64(opts.Cells); fr.Fabric.Mail != want {
		t.Fatalf("fleet delivered %d launch mails, want %d", fr.Fabric.Mail, want)
	}
	return fleetFingerprint(fr, images)
}

// TestFleetByteIdenticalAcrossShardCounts is the acceptance oracle for the
// three applications: a 4-cell staggered fleet must produce byte-identical
// file images, traces, and reports at shards ∈ {1, 2, 4, 8}, with shards=1
// (the serial engine driving every cell in turn) as the reference.
func TestFleetByteIdenticalAcrossShardCounts(t *testing.T) {
	for _, app := range Apps() {
		s := SmallStudy(app)
		s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
		base := FleetOptions{Cells: 4, Stagger: 50 * sim.Millisecond, Shards: 1, Seed: 99}
		ref := fleetImage(t, s, base)
		if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
			t.Fatalf("%s: fleet baseline audit not clean:\n%.600s", app, ref)
		}
		for _, shards := range shardCounts[1:] {
			opts := base
			opts.Shards = shards
			if got := fleetImage(t, s, opts); got != ref {
				t.Errorf("%s: fleet results at shards=%d differ from the serial oracle", app, shards)
			}
		}
	}
}

// syntheticFleetImage builds a fleet of synthetic-workload machines by hand
// on a fabric — the same coordinator-launch topology RunFleet uses, but with
// the mode-parameterized workload the Study API does not carry — and
// fingerprints the merged result.
func syntheticFleetImage(t *testing.T, mode iotrace.AccessMode, cells, workers int) string {
	t.Helper()
	type cell struct {
		m         *workload.Machine
		app       workload.App
		shard     *sim.Shard
		launchErr error
	}
	fab := sim.NewFabric(workers)
	coord := fab.AddShard("coord", 7)
	cs := make([]*cell, cells)
	for i := range cs {
		shard := fab.AddShard(fmt.Sprintf("cell%d", i), 7)
		pcfg := pfs.DefaultConfig()
		pcfg.Integrity = integrity.Config{Enabled: true}
		m, err := workload.NewMachineOn(shard.Engine(), workload.MachineConfig{ComputeNodes: 8, PFS: pcfg})
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
		fab.Connect(coord, shard, m.Mesh.Lookahead())
		cs[i] = &cell{m: m, app: app, shard: shard}
	}
	coord.Engine().Spawn("launcher", func(p *sim.Process) {
		for i, c := range cs {
			c := c
			delay := c.m.Mesh.Lookahead() + sim.Time(i)*20*sim.Millisecond
			coord.Send(p, c.shard, delay, "launch", func(lp *sim.Process) {
				if err := c.app.Launch(c.m, workload.WrapPFS(c.m.PFS)); err != nil {
					c.launchErr = err
					lp.Engine().Stop()
				}
			})
		}
	})
	if err := fab.Run(); err != nil {
		t.Fatalf("mode %v (workers=%d): %v", mode, workers, err)
	}
	var b strings.Builder
	for i, c := range cs {
		if c.launchErr != nil {
			t.Fatalf("mode %v cell %d: %v", mode, i, c.launchErr)
		}
		fmt.Fprintf(&b, "== cell %d end=%d\n", i, c.m.Eng.Now())
		b.WriteString(fingerprint(c.m.PFS))
	}
	return b.String()
}

// TestFleetModeByteIdenticalAcrossShardCounts extends the oracle across all
// six PFS access modes via the phase-aligned synthetic workload.
func TestFleetModeByteIdenticalAcrossShardCounts(t *testing.T) {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	for _, mode := range modes {
		ref := syntheticFleetImage(t, mode, 4, 1)
		if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
			t.Fatalf("mode %v: baseline audit not clean:\n%.400s", mode, ref)
		}
		for _, shards := range shardCounts[1:] {
			if got := syntheticFleetImage(t, mode, 4, shards); got != ref {
				t.Errorf("mode %v: results at shards=%d differ from the serial oracle", mode, shards)
			}
		}
	}
}

// TestFleetRF3ZoneOutageBurst is the feature-stack oracle: RF=3 zone-aware
// replication riding out a full zone blackout, with the burst tier draining
// through the degraded PFS, must stay byte-identical at every shard count —
// and every cell must still audit clean.
func TestFleetRF3ZoneOutageBurst(t *testing.T) {
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

	base := FleetOptions{Cells: 3, Stagger: 30 * sim.Millisecond, Shards: 1, Seed: 5}
	ref := fleetImage(t, s, base)
	if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
		t.Fatalf("RF3+outage+burst baseline audit not clean:\n%.600s", ref)
	}
	if strings.Contains(ref, "incidents 0 ") {
		t.Fatalf("zone outage was never realized — the oracle is not exercising the fault path:\n%.600s", ref)
	}
	for _, shards := range []int{2, 4} {
		opts := base
		opts.Shards = shards
		if got := fleetImage(t, s, opts); got != ref {
			t.Errorf("RF3+outage+burst results at shards=%d differ from the serial oracle", shards)
		}
	}
}

// TestFleetStaggerAndMakespan sanity-checks the fleet-level aggregates: cell
// starts honor the stagger, and the makespan is the latest cell finish.
func TestFleetStaggerAndMakespan(t *testing.T) {
	s := SmallStudy(RENDER)
	fr, err := RunFleet(s, FleetOptions{Cells: 3, Stagger: sim.Second, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fr.Starts); i++ {
		if fr.Starts[i]-fr.Starts[i-1] != sim.Second {
			t.Fatalf("stagger between cells %d and %d is %v, want 1s", i-1, i, fr.Starts[i]-fr.Starts[i-1])
		}
	}
	var latest sim.Time
	for _, r := range fr.Cells {
		if r.Wall > latest {
			latest = r.Wall
		}
	}
	if fr.Makespan != latest {
		t.Fatalf("makespan %v != latest cell wall %v", fr.Makespan, latest)
	}
	if fr.Fabric.Shards != 4 { // coordinator + 3 cells
		t.Fatalf("fabric has %d shards, want 4", fr.Fabric.Shards)
	}
}
