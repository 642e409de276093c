package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/pfs"
)

// Resilience reduces a single-attempt report to the analysis-layer
// resilience summary (exposure, per-fault latency impact, failover counters).
func (r *Report) Resilience() analysis.ResilienceReport { return r.resilience(r.Incidents) }

// resilience is r's summary with the per-fault latency impact measured
// against the incidents incs, on r's clock.
func (r *Report) resilience(incs []fault.Incident) analysis.ResilienceReport {
	return analysis.ResilienceReport{
		Wall:              r.Wall,
		Attempts:          1,
		Exposure:          analysis.Exposures(r.Incidents),
		Impacts:           analysis.FaultImpacts(r.Events, incs),
		Timeouts:          r.Failover.Timeouts,
		Retries:           r.Failover.Retries,
		Reroutes:          r.Failover.Reroutes,
		MirrorWrites:      r.Failover.MirrorWrites,
		FailedOps:         r.Failover.Failed,
		BackoffTime:       r.Failover.BackoffTime,
		ReplicationFactor: r.ReplicationFactor,
		Repair:            repairSummary(r.Repair.Capped(r.Wall), r.Incidents, r.RepairEnabled()),
	}
}

// RepairEnabled reports whether the repair control plane ran during the
// study (the stats carry no explicit flag; a sweep only spawns with work,
// so the authoritative signal is recorded at report time).
func (r *Report) RepairEnabled() bool { return r.repairOn }

// repairSummary maps the PFS repair counters into the analysis layer's
// availability summary. The outage count comes from the (already capped)
// incident timeline rather than the raw hook counter so that fault windows
// past the app's completion don't inflate the durability line.
func repairSummary(s pfs.RepairStats, incs []fault.Incident, enabled bool) analysis.RepairSummary {
	var outages int64
	for _, inc := range incs {
		if inc.Kind == fault.IONodeOutage {
			outages++
		}
	}
	return analysis.RepairSummary{
		Enabled:               enabled,
		Outages:               outages,
		SloppyWrites:          s.SloppyWrites,
		MirrorMisses:          s.MirrorMisses,
		LedgerPuts:            s.LedgerPuts,
		LedgerPeak:            s.LedgerPeak,
		Backlog:               s.LedgerPuts - s.LedgerDrains,
		ChunksRepaired:        s.ChunksRepaired,
		BytesRepaired:         s.BytesRepaired,
		Abandoned:             s.Abandoned,
		ThrottleTime:          s.ThrottleTime,
		TimeToFullRedundancy:  s.TimeToFullRedundancy(),
		WindowOfVulnerability: s.WindowOfVulnerability(),
	}
}

// Resilience reduces the resilient run to the analysis-layer summary. The
// per-fault latency impact and the failover counters cover the successful
// attempt (the one whose full trace survives); exposure spans the whole
// timeline.
func (rr *ResilientReport) Resilience() analysis.ResilienceReport {
	var out analysis.ResilienceReport
	if rr.Final != nil && len(rr.Attempts) > 0 {
		// Rebase the final attempt's incidents onto its local clock so they
		// line up with the surviving trace.
		start := rr.Attempts[len(rr.Attempts)-1].Start
		var local []fault.Incident
		for _, inc := range rr.Incidents {
			if inc.End <= start {
				continue
			}
			inc.Start = max(inc.Start-start, 0)
			inc.End -= start
			local = append(local, inc)
		}
		out = rr.Final.resilience(local)
	}
	out.Wall, out.Attempts, out.LostWork = rr.Wall, len(rr.Attempts), rr.LostWork
	out.Checkpoints, out.CkptOverhead = rr.Ckpt.Checkpoints, rr.Ckpt.Overhead
	out.Restores, out.RestoreTime = rr.Ckpt.Restores, rr.Ckpt.RestoreTime
	out.Exposure = analysis.Exposures(rr.Incidents)
	for _, a := range rr.Attempts {
		if a.Failed {
			out.Failures++
		}
	}
	return out
}

// TradeoffSweep reruns the resilient study once per checkpoint interval
// (0 meaning no checkpoints) and collects the overhead-versus-lost-work
// curve. Every run replays the same materialized fault schedule.
func TradeoffSweep(rs ResilientStudy, intervals []int) ([]analysis.TradeoffPoint, error) {
	cells := make([]sweepCell, len(intervals))
	for i, iv := range intervals {
		cells[i] = sweepCell{fmt.Sprintf("interval %d", iv), rs}
		cells[i].plan.Ckpt.Interval = iv
	}
	return runSweep("tradeoff sweep", cells, nil, func(i int, rr *ResilientReport) analysis.TradeoffPoint {
		return analysis.TradeoffPoint{
			Interval:    intervals[i],
			Checkpoints: rr.Ckpt.Checkpoints,
			Overhead:    rr.Ckpt.Overhead,
			LostWork:    rr.LostWork,
			Wall:        rr.Wall,
		}
	})
}
