package core

import (
	"fmt"
	"sort"

	"repro/internal/apps/escat"
	"repro/internal/apps/htf"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ResilientStudy describes a chaos run with checkpoint/restart: the study's
// fault plan is injected, and when a fault kills the application the machine
// is rebuilt and the application restarted from its last committed
// checkpoint, with the remaining fault schedule carried over.
type ResilientStudy struct {
	Study

	// Ckpt is the checkpoint policy. Interval <= 0 runs without
	// checkpoints: every restart redoes the run from the beginning.
	Ckpt ckpt.Config

	// MaxAttempts bounds the restart loop (default 8).
	MaxAttempts int

	// RestartCost is the fixed wall-clock charge per restart (requeue,
	// relaunch, reload of the executable).
	RestartCost sim.Time

	// preVerify, when set, runs between carried-corruption re-injection and
	// checkpoint restart verification — a test seam for corrupting specific
	// files (e.g. the newest checkpoint generation) deterministically.
	preVerify func(attempt int, coord *ckpt.Coordinator, fs *pfs.FileSystem)
}

// Attempt is one execution attempt's outcome, in absolute time (restart
// costs included in the gaps between attempts).
type Attempt struct {
	Start, End sim.Time
	ResumeUnit int    // work unit the attempt started from
	Failed     bool   // attempt died to a fault
	Err        string // first node failure (empty on success)
}

// Wall returns the attempt's duration.
func (a Attempt) Wall() sim.Time { return a.End - a.Start }

// ResilientReport is the outcome of a resilient run.
type ResilientReport struct {
	// Final is the successful attempt's full report (attempt-local times).
	Final *Report

	Attempts  []Attempt
	Incidents []fault.Incident // realized faults across attempts, absolute times
	Ckpt      ckpt.Stats
	LostWork  sim.Time // computed work discarded by failures
	Wall      sim.Time // absolute completion time including restarts

	// BurstLostBytes counts burst-log bytes that died undrained with failed
	// attempts — committed by the application but never persisted to the PFS.
	BurstLostBytes int64
}

// failedAtter lets the driver read the simulated instant an app first died.
type failedAtter interface {
	FailedAt() (sim.Time, bool)
}

// attachCkpt builds the checkpoint coordinator for the study's application
// and wires it into the application config; only ESCAT and HTF checkpoint.
func attachCkpt(s *Study, ck ckpt.Config) (*ckpt.Coordinator, error) {
	switch s.App {
	case ESCAT:
		cfg := escat.DefaultConfig()
		if s.ESCATConfig != nil {
			cfg = *s.ESCATConfig
		}
		coord, err := ckpt.New(ck, cfg.Nodes)
		cfg.Ckpt = coord
		s.ESCATConfig = &cfg
		return coord, err
	case HTF:
		cfg := htf.DefaultConfig()
		if s.HTFConfig != nil {
			cfg = *s.HTFConfig
		}
		coord, err := ckpt.New(ck, cfg.Nodes)
		cfg.Ckpt = coord
		s.HTFConfig = &cfg
		return coord, err
	}
	return nil, fmt.Errorf("core: %s does not support checkpointing", s.App)
}

// lastEventEnd returns the completion instant of the latest traced operation
// — the application's effective finish, excluding injector processes (a
// background RAID rebuild, say) and burst-tier drain writes that keep the
// simulated clock running after the application is done.
func lastEventEnd(events []iotrace.Event) sim.Time {
	var end sim.Time
	for _, e := range events {
		if e.Phase == pfs.PhaseBurstDrain {
			continue
		}
		if e.End > end {
			end = e.End
		}
	}
	return end
}

// RunResilient executes the study under its fault plan with restart-from-
// checkpoint semantics. Determinism: the fault schedule is materialized once
// from (Faults, FaultSeed) and each attempt replays its still-relevant
// remainder, so the same study and seed produce the same attempt history.
func RunResilient(rs ResilientStudy) (*ResilientReport, error) {
	s := rs.Study
	// The driver measures attempt completion from the trace.
	s.KeepTrace = true
	if rs.MaxAttempts <= 0 {
		rs.MaxAttempts = 8
	}

	var coord *ckpt.Coordinator
	if rs.Ckpt.Interval > 0 {
		var err error
		if coord, err = attachCkpt(&s, rs.Ckpt); err != nil {
			return nil, err
		}
	}

	rr := &ResilientReport{}
	var events []fault.Event
	base := sim.Time(0)
	// carried is the corruption ledger harvested from each dying attempt's
	// storage: latent corruption does not go away because the application
	// restarted, so it is re-injected into the fresh instance.
	var carried []pfs.CorruptRange
	for attempt := 0; attempt < rs.MaxAttempts; attempt++ {
		s, rt, err := prepare(s, nil, nil)
		if err != nil {
			return nil, err
		}
		if attempt == 0 {
			events = faultEvents(s)
		}
		if coord != nil {
			if err := coord.Prepare(rt.m, rt.fs, base); err != nil {
				rt.retire()
				return nil, err
			}
			if rt.burst != nil {
				// Route checkpoint files through the burst tier regardless
				// of the I/O mode the checkpointer opens them with.
				rt.burst.InterceptPrefix(coord.FileBase())
			}
		}
		rt.m.PFS.InjectCorruption(carried)
		if coord != nil {
			if rs.preVerify != nil {
				rs.preVerify(attempt, coord, rt.m.PFS)
			}
			// Reject checkpoint generations whose storage holds latent
			// corruption before the application restores from them.
			coord.VerifyRestart(rt.m.PFS)
		}
		resume := 0
		if coord != nil {
			resume = coord.ResumeUnit()
		}
		inj := rt.inject(s, fault.ShiftForRestart(events, base))
		runErr := workload.Run(rt.m, rt.fs, rt.app)
		// The attempt is over either way; unwind what it left parked.
		rt.retire()

		nodeErr, nodeLoss := attemptFailure(rt, inj)
		if nodeErr == nil && nodeLoss != nil {
			// The loss froze the engine before any node program could
			// observe an error; the attempt is dead anyway.
			nodeErr = fmt.Errorf("compute node %d lost at %v", nodeLoss.Node, nodeLoss.At)
		}
		if nodeErr == nil && runErr != nil {
			// Not an application death from a fault: a real failure.
			return nil, runErr
		}

		if nodeErr == nil {
			r := rt.report(s)
			r.Wall = lastEventEnd(r.Events)
			if inj != nil {
				inj.CloseOpen(r.Wall)
				rr.addIncidents(capIncidents(inj.Incidents(), r.Wall), base)
			}
			rr.Final = r
			rr.Attempts = append(rr.Attempts, Attempt{
				Start: base, End: base + r.Wall, ResumeUnit: resume,
			})
			rr.Wall = base + r.Wall
			if coord != nil {
				rr.Ckpt = coord.Stats()
				if r.Integrity != nil {
					r.Integrity.CkptVerifyRejects = rr.Ckpt.VerifyRejects
					r.Integrity.CkptFallbacks = rr.Ckpt.Fallbacks
				}
			}
			if r.Integrity != nil {
				rr.addIncidents(fault.CorruptionIncidents(r.Integrity.Events), base)
			}
			rr.sortIncidents()
			return rr, nil
		}

		// The attempt died. Its end is the first node failure; everything
		// after the last committed checkpoint is lost work.
		failedAt, ok := failAt(rt.app)
		if !ok {
			failedAt = rt.m.Eng.Now()
			if nodeLoss != nil {
				failedAt = nodeLoss.At
			}
		}
		if inj != nil {
			inj.CloseOpen(failedAt)
			// The attempt was abandoned at failedAt: anything the injector
			// timeline says happened after that (a rebuild completing in the
			// dead machine's engine) didn't.
			rr.addIncidents(capIncidents(inj.Incidents(), failedAt), base)
		}
		rr.addIncidents(fault.CorruptionIncidents(rt.m.PFS.IntegrityEvents()), base)
		// Harvest the dying storage's corruption ledger for the next attempt.
		carried = rt.m.PFS.HarvestCorruption()
		if rt.burst != nil {
			// Undrained log content dies with the attempt: it was committed
			// to volatile node memory, never to the PFS. Checkpoint
			// generations with pending records are not restartable.
			und := rt.burst.UndrainedFiles()
			for _, b := range und {
				rr.BurstLostBytes += b
			}
			if coord != nil {
				coord.RejectUndrained(und)
			}
		}
		lostFrom := base
		if coord != nil && coord.Have() && coord.LastCommitAt() > base {
			lostFrom = coord.LastCommitAt()
		}
		rr.LostWork += base + failedAt - lostFrom
		rr.Attempts = append(rr.Attempts, Attempt{
			Start: base, End: base + failedAt, ResumeUnit: resume,
			Failed: true, Err: nodeErr.Error(),
		})
		base += failedAt + rs.RestartCost
	}
	if coord != nil {
		rr.Ckpt = coord.Stats()
	}
	rr.sortIncidents()
	return rr, fmt.Errorf("core: %s did not complete within %d attempts (%d failures)",
		s.App, rs.MaxAttempts, len(rr.Attempts))
}

// sortIncidents restores global start-time order after per-attempt merges.
func (rr *ResilientReport) sortIncidents() {
	sort.SliceStable(rr.Incidents, func(i, j int) bool {
		return rr.Incidents[i].Start < rr.Incidents[j].Start
	})
}

func failAt(app workload.App) (sim.Time, bool) {
	if f, ok := app.(failedAtter); ok {
		return f.FailedAt()
	}
	return 0, false
}

// addIncidents rebases one attempt's incident timeline to absolute time.
func (rr *ResilientReport) addIncidents(incs []fault.Incident, base sim.Time) {
	for _, inc := range incs {
		inc.Start += base
		inc.End += base
		rr.Incidents = append(rr.Incidents, inc)
	}
}

// capIncidents truncates an attempt's incident timeline at the instant the
// application stopped mattering — the failure on an abandoned attempt, the
// last traced operation on a successful one. Incidents starting later are
// dropped, ones spanning the cut are left open-ended there.
func capIncidents(incs []fault.Incident, cut sim.Time) []fault.Incident {
	var out []fault.Incident
	for _, inc := range incs {
		if inc.Start > cut {
			continue
		}
		if inc.End > cut {
			inc.End = cut
			inc.Open = true
		}
		out = append(out, inc)
	}
	return out
}
