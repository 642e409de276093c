package core

import (
	"sort"

	"repro/internal/apps/escat"
	"repro/internal/apps/htf"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
)

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

// ResilientReport is a plan's attempt-level outcome (see Execute).
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

	// killed is a killed job's report of the machine as the failure left
	// it; nil unless a one-attempt plan died.
	killed *Report
}

// attachCkpt builds the checkpoint coordinator for the study's application
// and wires it into the application config; Plan.Validate admits
// checkpointing for ESCAT and HTF only.
func attachCkpt(s *Study, ck ckpt.Config) (coord *ckpt.Coordinator, err error) {
	switch s.App {
	case ESCAT:
		cfg := escat.DefaultConfig()
		if s.ESCATConfig != nil {
			cfg = *s.ESCATConfig
		}
		coord, err = ckpt.New(ck, cfg.Nodes)
		cfg.Ckpt = coord
		s.ESCATConfig = &cfg
	case HTF:
		cfg := htf.DefaultConfig()
		if s.HTFConfig != nil {
			cfg = *s.HTFConfig
		}
		coord, err = ckpt.New(ck, cfg.Nodes)
		cfg.Ckpt = coord
		s.HTFConfig = &cfg
	}
	return coord, err
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
// checkpoint semantics (see Execute). The report comes back also beside the
// error of a run that ran out of attempts.
func RunResilient(rs ResilientStudy) (*ResilientReport, error) {
	rr, _, err := Execute(rs)
	return rr, err
}

// sortIncidents orders an incident timeline by start time, keeping the
// order of incidents that start together.
func sortIncidents(incs []fault.Incident) {
	sort.SliceStable(incs, func(i, j int) bool { return incs[i].Start < incs[j].Start })
}

// addIncidents rebases one attempt's incident timeline to absolute time.
func (rr *ResilientReport) addIncidents(incs []fault.Incident, base sim.Time) {
	for _, inc := range incs {
		inc.Start += base
		inc.End += base
		rr.Incidents = append(rr.Incidents, inc)
	}
}

// capIncidents ends the injector's incident timeline at the instant the
// application stopped mattering — the failure on an abandoned attempt, the
// last traced operation on a successful one: incidents still open close
// there, ones starting later are dropped, and ones spanning the cut are left
// open-ended there.
func capIncidents(inj *fault.Injector, cut sim.Time) []fault.Incident {
	inj.CloseOpen(cut)
	var out []fault.Incident
	for _, inc := range inj.Incidents() {
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
