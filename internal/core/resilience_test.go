package core

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/sim"
)

func TestResilienceSummaryFromResilientRun(t *testing.T) {
	rr, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatal(err)
	}
	r := rr.Resilience()
	if r.Attempts != 2 || r.Failures != 1 {
		t.Errorf("attempts/failures = %d/%d, want 2/1", r.Attempts, r.Failures)
	}
	if r.Wall != rr.Wall || r.LostWork != rr.LostWork {
		t.Errorf("wall/lost = %v/%v, want %v/%v", r.Wall, r.LostWork, rr.Wall, rr.LostWork)
	}
	if r.Exposure.Outage <= 0 {
		t.Errorf("outage exposure = %v, want > 0", r.Exposure.Outage)
	}
	if r.Checkpoints != rr.Ckpt.Checkpoints || r.Restores != rr.Ckpt.Restores {
		t.Errorf("ckpt counters not carried: %+v vs %+v", r, rr.Ckpt)
	}
	text := analysis.RenderResilience(r)
	if !strings.Contains(text, "Resilience report:") ||
		!strings.Contains(text, "2 attempts, 1 failures") {
		t.Errorf("render:\n%s", text)
	}

	// With the repair plane on, the durability line counts every I/O-node
	// outage on the surviving attempt's timeline.
	rs := ResilientStudy{Study: replicatedStudy(ESCAT, 3), RestartCost: 1500 * sim.Millisecond}
	rs.Faults = zoneOutagePlan(16, 3*sim.Second, sim.Second)
	if rr, err = RunResilient(rs); err != nil {
		t.Fatal(err)
	}
	var outages int64
	for _, inc := range rr.Incidents {
		if inc.Kind == fault.IONodeOutage {
			outages++
		}
	}
	if got := rr.Resilience().Repair.Outages; outages == 0 || got != outages {
		t.Errorf("repair summary counts %d outages, timeline has %d", got, outages)
	}
}

func TestTradeoffSweepMonotoneLostWork(t *testing.T) {
	pts, err := TradeoffSweep(chaosStudy(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	none, freq := pts[0], pts[1]
	if none.Checkpoints != 0 || none.Overhead != 0 {
		t.Errorf("interval-0 point has checkpoint activity: %+v", none)
	}
	if freq.Checkpoints < 2 || freq.Overhead <= 0 {
		t.Errorf("interval-2 point missing checkpoint activity: %+v", freq)
	}
	if none.LostWork <= freq.LostWork {
		t.Errorf("lost work: none=%v should exceed interval-2=%v",
			none.LostWork, freq.LostWork)
	}
	out := analysis.RenderTradeoff(pts)
	if !strings.Contains(out, "none") || !strings.Contains(out, "2") {
		t.Errorf("render:\n%s", out)
	}

	// A failing cell's error names the sweep and the cell: RENDER has no
	// work loop to checkpoint.
	_, err = TradeoffSweep(ResilientStudy{Study: SmallStudy(RENDER)}, []int{0, 1})
	if err == nil || !strings.Contains(err.Error(), "tradeoff sweep: interval 1: ") {
		t.Errorf("RENDER at interval 1: got %v, want an error naming the tradeoff sweep and interval 1", err)
	}
}

// TradeoffSweep must not leak coordinator state between intervals: each run
// starts from scratch.
func TestTradeoffSweepIndependentRuns(t *testing.T) {
	pts, err := TradeoffSweep(chaosStudy(), []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0] != pts[1] {
		t.Errorf("identical intervals diverged: %+v vs %+v", pts[0], pts[1])
	}
	solo, err := RunResilient(func() ResilientStudy {
		rs := chaosStudy()
		rs.Ckpt = ckpt.Config{Interval: 2, BytesPerNode: 4096, FileName: "escat.ckpt"}
		return rs
	}())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Wall != solo.Wall || pts[0].LostWork != solo.LostWork {
		t.Errorf("sweep point %+v differs from direct run wall=%v lost=%v",
			pts[0], solo.Wall, solo.LostWork)
	}
}
