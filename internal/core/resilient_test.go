package core

import (
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/sim"
)

// chaosStudy is a small ESCAT run with a machine-wide I/O-node outage placed
// after the first checkpoint commit (~3.5 s) and across the middle quadrature
// writes, so an unprotected run dies mid-flight.
func chaosStudy() ResilientStudy {
	s := SmallStudy(ESCAT)
	s.Faults = fault.Plan{Cascades: []fault.Cascade{{
		Kind: fault.IONodeOutage, At: 4200 * sim.Millisecond,
		Nodes: 16, FirstNode: 0, Spacing: 0, Duration: 1200 * sim.Millisecond,
	}}}
	s.FaultSeed = 7
	return ResilientStudy{
		Study:       s,
		Ckpt:        ckpt.Config{Interval: 2, BytesPerNode: 4096, FileName: "escat.ckpt"},
		RestartCost: 1500 * sim.Millisecond,
	}
}

// TestFailedAttemptsLeaveNoGoroutines: a dead attempt's node programs stay
// parked (ESCAT's survivors wait at a barrier the failed nodes never reach)
// until the attempt is retired, so a resilient study with one failed attempt,
// and a single-attempt Run that dies, must both return the goroutine count to
// its baseline.
func TestFailedAttemptsLeaveNoGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	rr, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Attempts) != 2 || !rr.Attempts[0].Failed {
		t.Fatalf("attempts = %+v, want one failure + one success", rr.Attempts)
	}
	waitGoroutines(t, before)

	if _, err := Run(chaosStudy().Study); err == nil {
		t.Fatal("unprotected run survived the outage")
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for exiting goroutines to finish and fails if the
// count stays above want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", goruntime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestResilientEscatRestartsFromCheckpoint(t *testing.T) {
	rr, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatalf("RunResilient: %v", err)
	}
	if rr.Final == nil {
		t.Fatal("no final report")
	}
	if len(rr.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want one failure + one success", rr.Attempts)
	}
	fail, ok := rr.Attempts[0], rr.Attempts[1]
	if !fail.Failed || !strings.Contains(fail.Err, "I/O node down") {
		t.Errorf("first attempt %+v, want ErrIONodeDown death", fail)
	}
	if fail.End <= 4200*sim.Millisecond || fail.End >= 5400*sim.Millisecond {
		t.Errorf("failure at %v, want inside the outage window", fail.End)
	}
	if ok.Failed {
		t.Errorf("second attempt failed: %s", ok.Err)
	}
	if ok.ResumeUnit != 2 {
		t.Errorf("resumed from unit %d, want 2 (one committed checkpoint of interval 2)", ok.ResumeUnit)
	}
	if ok.Start != fail.End+1500*sim.Millisecond {
		t.Errorf("restart at %v, want failure end + restart cost", ok.Start)
	}

	// Lost work: everything between the last commit and the failure.
	commit := rr.Ckpt.LastCommitAt
	if rr.LostWork <= 0 || rr.LostWork >= fail.Wall() {
		t.Errorf("lost work %v outside (0, first attempt %v)", rr.LostWork, fail.Wall())
	}
	if commit <= 0 {
		t.Error("no commit time recorded")
	}
	if rr.Ckpt.Restores != 8 {
		t.Errorf("restores = %d, want 8 (one per node)", rr.Ckpt.Restores)
	}
	if rr.Ckpt.Checkpoints < 2 {
		t.Errorf("checkpoints = %d, want >= 2", rr.Ckpt.Checkpoints)
	}
	if rr.Wall != ok.End {
		t.Errorf("wall %v != successful attempt end %v", rr.Wall, ok.End)
	}

	// The incident timeline must cover both attempts' realized outages.
	if len(rr.Incidents) == 0 {
		t.Fatal("no incidents recorded")
	}
	for _, inc := range rr.Incidents {
		if inc.Kind != fault.IONodeOutage {
			t.Errorf("unexpected incident %+v", inc)
		}
	}
}

func TestResilientDeterministicHistory(t *testing.T) {
	a, errA := RunResilient(chaosStudy())
	b, errB := RunResilient(chaosStudy())
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a.Attempts, b.Attempts) {
		t.Errorf("attempt histories differ:\n%+v\n%+v", a.Attempts, b.Attempts)
	}
	if !reflect.DeepEqual(a.Incidents, b.Incidents) {
		t.Error("incident timelines differ")
	}
	if a.Wall != b.Wall || a.LostWork != b.LostWork {
		t.Errorf("wall/lost differ: %v/%v vs %v/%v", a.Wall, a.LostWork, b.Wall, b.LostWork)
	}
	if a.Ckpt != b.Ckpt {
		t.Errorf("ckpt stats differ: %+v vs %+v", a.Ckpt, b.Ckpt)
	}
}

// Without checkpoints the run still completes (the restart lands after the
// outage) but every failure discards the whole attempt — the
// checkpoint-overhead-versus-lost-work tradeoff in one assertion.
func TestResilientNoCheckpointLosesMore(t *testing.T) {
	withCkpt, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatal(err)
	}
	rs := chaosStudy()
	rs.Ckpt = ckpt.Config{}
	without, err := RunResilient(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Attempts) < 2 {
		t.Fatalf("attempts %+v", without.Attempts)
	}
	if got := without.Attempts[len(without.Attempts)-1].ResumeUnit; got != 0 {
		t.Errorf("uncheckpointed run resumed from unit %d", got)
	}
	if without.LostWork <= withCkpt.LostWork {
		t.Errorf("lost work without checkpoints (%v) not above with (%v)",
			without.LostWork, withCkpt.LostWork)
	}
	if without.Ckpt.Checkpoints != 0 || without.Ckpt.Restores != 0 {
		t.Errorf("ckpt stats on uncheckpointed run: %+v", without.Ckpt)
	}
}
