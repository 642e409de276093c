package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

const fleetScenarioSrc = `
name: fleet-run
seed: 9
workload:
  app: escat
fleet_gen:
  io_nodes: 4
  cells: 3
  stagger_s: 0.05
assertions:
  expected: ok
  max_failed_attempts: 0
`

// fleetResultImage renders everything a fleet scenario run surfaces: the
// adapted resilient report's headline numbers, the per-cell attempt table,
// the fleet aggregates, and the assertion section.
func fleetResultImage(t *testing.T, shards int) string {
	t.Helper()
	sc, err := Parse([]byte(fleetScenarioSrc), "")
	if err != nil {
		t.Fatal(err)
	}
	sc.Shards = shards
	res, err := sc.Execute()
	if err != nil {
		t.Fatalf("Execute (shards=%d): %v", shards, err)
	}
	if res.FleetRun == nil {
		t.Fatalf("multi-cell scenario did not run as a fleet")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%d lost=%d cells=%d mail=%d\n",
		res.Report.Wall, res.Report.LostWork, len(res.FleetRun.Cells), res.FleetRun.Fabric.Mail)
	for i, a := range res.Report.Attempts {
		fmt.Fprintf(&b, "attempt %d start=%d end=%d failed=%v\n", i, a.Start, a.End, a.Failed)
	}
	fmt.Fprintf(&b, "final events=%d summary=%+v\n", len(res.Report.Final.Events), res.Report.Final.Summary)
	b.WriteString(RenderChecks(sc.Name, res.M, res.Checks))
	return b.String()
}

// TestExecuteFleetByteIdenticalAcrossShards is the DSL-level face of the
// shard-count oracle: a multi-cell scenario's full result must not depend on
// the -shards setting.
func TestExecuteFleetByteIdenticalAcrossShards(t *testing.T) {
	ref := fleetResultImage(t, 1)
	if !strings.Contains(ref, "Assertions (fleet-run): PASS") {
		t.Fatalf("fleet scenario did not pass its assertions:\n%s", ref)
	}
	for _, shards := range []int{2, 4} {
		if got := fleetResultImage(t, shards); got != ref {
			t.Errorf("fleet scenario result at shards=%d differs from the serial oracle:\n-- shards=1:\n%s\n-- shards=%d:\n%s",
				shards, ref, shards, got)
		}
	}
}

// TestFleetOptionsMapping checks the scenario → core.FleetOptions
// translation of Build's plan and the single-machine fallthrough.
func TestFleetOptionsMapping(t *testing.T) {
	sc, err := Parse([]byte(fleetScenarioSrc), "")
	if err != nil {
		t.Fatal(err)
	}
	sc.Shards = 4
	plan, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	fo := plan.Fleet
	if fo.Cells != 3 || fo.Shards != 4 || fo.Seed != 9 {
		t.Fatalf("fleet options %+v: want cells=3 shards=4 seed=9", fo)
	}
	if fo.Stagger != 50*sim.Millisecond {
		t.Fatalf("stagger %v, want 50ms", fo.Stagger)
	}

	for _, src := range []string{"workload:\n  app: escat\n", "workload:\n  app: escat\nfleet_gen:\n  cells: 1\n"} {
		single, err := Parse([]byte(src), "t.yaml")
		if err != nil {
			t.Fatal(err)
		}
		if plan, _, err := single.Build(); err != nil || plan.Fleet.Cells != 0 {
			t.Fatalf("%q: single-machine scenario planned %d cells (err %v)", src, plan.Fleet.Cells, err)
		}
	}
}

// TestShardLayoutValidation pins the knob's accepted forms: "single" (or no
// key) runs, and the removed split layout is rejected with a message that
// says so.
func TestShardLayoutValidation(t *testing.T) {
	parse := func(layout string) error {
		src := "workload:\n  app: escat\nfleet_gen:\n  shard_layout: " + layout + "\n"
		_, err := Parse([]byte(src), "")
		return err
	}
	if err := parse("single"); err != nil {
		t.Fatalf("shard_layout single rejected: %v", err)
	}
	for _, split := range []string{"split:2", "split:4"} {
		err := parse(split)
		if err == nil || !strings.Contains(err.Error(), "shard_layout") || !strings.Contains(err.Error(), "was removed") {
			t.Errorf("shard_layout %q: got err %v, want a rejection naming the removal", split, err)
		}
	}
	if err := parse("mesh"); err == nil || !strings.Contains(err.Error(), "shard_layout") {
		t.Errorf("shard_layout mesh: got err %v, want a shard_layout rejection", err)
	}
}
