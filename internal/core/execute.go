package core

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Plan is one execution of a study: the study, the cells it runs as, and the
// attempt policy. Run, RunResilient, RunFleet and every sweep hand plans to
// Execute.
type Plan struct {
	Study

	// Fleet is the cell shape: Cells 0 runs one machine on an engine of its
	// own, Cells >= 1 that many cells on the fabric, one attempt each.
	Fleet FleetOptions

	// Ckpt is the checkpoint policy. Interval <= 0 runs without
	// checkpoints: every restart redoes the run from the beginning.
	Ckpt ckpt.Config

	// MaxAttempts bounds the restart loop (default 8). A plan with one
	// attempt (MaxAttempts 1, or cells) is a job: Execute returns a fault it
	// cannot absorb as the job's kill.
	MaxAttempts int

	// RestartCost is the fixed wall-clock charge per restart (requeue,
	// relaunch, reload of the executable).
	RestartCost sim.Time

	// preVerify, when set, runs between carried-corruption re-injection and
	// checkpoint restart verification — a test seam for corrupting specific
	// files (e.g. the newest checkpoint generation) deterministically.
	preVerify func(attempt int, coord *ckpt.Coordinator, fs *pfs.FileSystem)

	// inspect, when set, sees each completed cell's file system before the
	// cell retires — a test seam for fingerprinting final file images.
	inspect func(cell int, fs *pfs.FileSystem)
}

// ResilientStudy is the plan RunResilient takes: a study with its attempt
// policy.
type ResilientStudy = Plan

// Validate checks the plan's shape rules: which layers, cell counts and
// attempt policies combine. Messages name each setting by its scenario-DSL
// key, the spelling the command-line flags share.
func (p Plan) Validate() error {
	if p.Policy != nil && p.Burst.Enabled {
		return fmt.Errorf("features.burst and workload.policy are mutually exclusive (both are client-side layers over the same seam)")
	}
	f := p.Fleet
	if f.Cells < 0 {
		return fmt.Errorf("fleet_gen.cells %d is negative", f.Cells)
	}
	if f.Stagger < 0 {
		return fmt.Errorf("fleet_gen.stagger_s %v is negative", f.Stagger)
	}
	if f.Stagger > 0 && f.Cells <= 1 {
		return fmt.Errorf("fleet_gen.stagger_s needs cells > 1")
	}
	if f.Cells > 0 {
		// Cells run one attempt each; the checkpoint/restart loop drives a
		// single machine.
		if p.Ckpt.Interval > 0 {
			return fmt.Errorf("run.ckpt_interval: fleet_gen.cells > 1 runs a single attempt per cell (set ckpt_interval: 0)")
		}
		if p.MaxAttempts > 1 {
			return fmt.Errorf("run.max_attempts: fleet_gen.cells > 1 runs a single attempt per cell")
		}
	}
	if p.Ckpt.Interval > 0 && p.App != ESCAT && p.App != HTF {
		return fmt.Errorf("run.ckpt_interval: %s does not support checkpointing (set ckpt_interval: 0)", p.App)
	}
	return nil
}

// Execute runs the plan. Each attempt prepares its cells, arms their fault
// schedules shifted to the attempt's clock, runs the engine or the fabric and
// reads the failures the run hid; a dead machine restarts from its last
// committed checkpoint while attempts remain. Determinism: each cell's
// schedule is materialized once from (Faults, FaultSeed) and every attempt
// replays its still-relevant remainder.
//
// The attempt-level report comes back for every plan that ran, also beside
// the error of one that ran out of attempts; a fleet's has one completed
// attempt per cell, cell 0 as Final and the makespan as Wall. The fleet
// report lists the cells (a machine without cells is cell 0, with no fabric)
// and is nil unless the plan completed.
func Execute(p Plan) (*ResilientReport, *FleetReport, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	x := &execution{Plan: p}
	switch {
	case x.Fleet.Cells > 0:
		x.MaxAttempts = 1
	case x.MaxAttempts <= 0:
		x.MaxAttempts = 8
	}
	if x.MaxAttempts > 1 {
		// Restarts measure each attempt's end from the trace.
		x.KeepTrace = true
	}
	if x.Ckpt.Interval > 0 {
		var err error
		if x.coord, err = attachCkpt(&x.Study, x.Ckpt); err != nil {
			return nil, nil, err
		}
	}
	var fr *FleetReport
	for fr == nil && x.attempt < x.MaxAttempts {
		var err error
		if fr, err = x.try(); err != nil {
			return nil, nil, err
		}
	}
	rr := &x.rr
	if x.Fleet.Cells == 0 {
		// A machine's timeline merges its attempts; a fleet's stays in cell
		// order.
		sortIncidents(rr.Incidents)
	}
	if x.coord != nil {
		rr.Ckpt = x.coord.Stats()
		if fr != nil && rr.Final.Integrity != nil {
			rr.Final.Integrity.CkptVerifyRejects = rr.Ckpt.VerifyRejects
			rr.Final.Integrity.CkptFallbacks = rr.Ckpt.Fallbacks
		}
	}
	return rr, fr, x.deathErr // set only when no attempt completed
}

// execution is one Execute call's state across attempts. Its plan is the one
// every attempt prepares: defaults applied, checkpointer attached.
type execution struct {
	Plan
	coord *ckpt.Coordinator

	attempt int
	base    sim.Time        // the attempt's start on the plan's clock
	events  [][]fault.Event // each cell's materialized schedule
	// carried is the dying attempt's corruption ledger: latent corruption
	// survives a restart, so it is re-injected into the fresh instance.
	carried []pfs.CorruptRange

	rr       ResilientReport
	deathErr error // why the last attempt died
}

// attempt is one try at the plan: its cells' runtimes and a fleet's fabric,
// with the shard that launches them.
type attempt struct {
	cells    []*runtime
	fab      *sim.Fabric
	launcher *sim.Shard
	resume   int // work unit the attempt restores from
}

// try runs one attempt. It returns the fleet report when the attempt
// completed, nothing when its machine died (recorded for a restart), and an
// error for a failure no restart absorbs.
func (x *execution) try() (*FleetReport, error) {
	a := &attempt{cells: make([]*runtime, max(x.Fleet.Cells, 1))}
	defer a.retire() // whatever the outcome
	if err := x.setup(a); err != nil {
		return nil, err
	}
	if err := a.run(); err != nil {
		return nil, err
	}
	for i, c := range a.cells {
		nodeErr, loss := c.failure()
		switch {
		case nodeErr == nil && loss == nil && c.runErr != nil:
			// Not an application death from a fault: a real failure.
			return nil, a.name(i, c.runErr)
		case nodeErr == nil && loss == nil:
			continue
		case a.fab != nil:
			return nil, a.name(i, c.jobErr(nodeErr, loss))
		}
		x.bury(c, a.resume, nodeErr, loss)
		return nil, nil
	}
	return x.finish(a), nil
}

// setup prepares the attempt's cells and arms each one: checkpoint restore,
// carried corruption, and the fault schedule on the cell's clock.
func (x *execution) setup(a *attempt) error {
	if x.Fleet.Cells > 0 {
		a.fab = sim.NewFabric(x.Fleet.Shards)
		a.launcher = a.fab.AddShard("coordinator", x.Fleet.Seed)
	}
	cellSeeds := sim.NewRNG(x.FaultSeed)
	for i := range a.cells {
		s := x.Study
		if i > 0 {
			// Independent chaos per cell, all derived from the one study
			// seed; cell 0 keeps the study's own timeline.
			s.FaultSeed = cellSeeds.Uint64()
		}
		var shard *sim.Shard
		var eng *sim.Engine
		if a.fab != nil {
			shard = a.fab.AddShard(fmt.Sprintf("cell%d", i), x.Fleet.Seed)
			eng = shard.Engine()
		}
		c, err := prepare(s, eng)
		if err != nil {
			return a.name(i, err)
		}
		a.cells[i], c.shard = c, shard
		if a.fab != nil {
			lookahead := c.m.Mesh.Lookahead()
			a.fab.Connect(a.launcher, shard, lookahead)
			c.start = lookahead + x.Fleet.Stagger*sim.Time(i)
		}
		if x.attempt == 0 {
			x.events = append(x.events, faultEvents(c.s))
		}
		if x.coord != nil {
			if err := x.coord.Prepare(c.m, c.fs, x.base); err != nil {
				return err
			}
			if c.burst != nil {
				// Route checkpoint files through the burst tier regardless
				// of the I/O mode the checkpointer opens them with.
				c.burst.InterceptPrefix(x.coord.FileBase())
			}
		}
		c.m.PFS.InjectCorruption(x.carried)
		if x.coord != nil {
			if x.preVerify != nil {
				x.preVerify(x.attempt, x.coord, c.m.PFS)
			}
			// Reject checkpoint generations whose storage holds latent
			// corruption before the application restores from them.
			x.coord.VerifyRestart(c.m.PFS)
			a.resume = x.coord.ResumeUnit()
		}
		// The schedule's instants are relative to the job: drop what
		// earlier attempts already lived through, then shift the rest past
		// the cell's launch.
		evs := fault.ShiftForRestart(x.events[i], x.base)
		for j := range evs {
			evs[j].At += c.start
		}
		c.inject(evs)
	}
	return nil
}

// run executes the attempt: a machine on its own engine, or the cells on the
// fabric, launched by mail from the launcher shard.
func (a *attempt) run() error {
	if a.fab == nil {
		c := a.cells[0]
		c.runErr = workload.Run(c.m, c.fs, c.app)
		return nil
	}
	a.launcher.Engine().Spawn("launcher", func(p *sim.Process) {
		for _, c := range a.cells {
			a.launcher.Send(p, c.shard, c.start, "launch:"+c.shard.Name(), func(lp *sim.Process) {
				if err := c.app.Launch(c.m, c.fs); err != nil {
					c.runErr = fmt.Errorf("%s: launch: %w", c.app.Name(), err)
					lp.Engine().Stop()
				}
			})
		}
	})
	if err := a.fab.Run(); err != nil {
		return fmt.Errorf("core: fleet: %w", err)
	}
	return nil
}

// name names a fleet's failing cell in err.
func (a *attempt) name(i int, err error) error {
	if a.fab == nil {
		return err
	}
	return fmt.Errorf("core: fleet cell %d: %w", i, err)
}

// retire unwinds whatever the attempt left parked on its engines (see
// sim.Engine.Retire), so no attempt — finished, failed or abandoned —
// outlives its report.
func (a *attempt) retire() {
	for _, c := range a.cells {
		if c != nil {
			c.m.Eng.Retire()
		}
	}
}

// finish assembles a completed attempt's reports: each cell's, the fleet
// report over them, and the attempt-level report.
func (x *execution) finish(a *attempt) *FleetReport {
	fr := &FleetReport{Cells: make([]*Report, len(a.cells)), Starts: make([]sim.Time, len(a.cells))}
	if a.fab != nil {
		fr.Fabric = a.fab.Stats()
	}
	rr := &x.rr
	for i, c := range a.cells {
		r := c.finish(x.MaxAttempts > 1)
		if x.inspect != nil {
			x.inspect(i, c.m.PFS)
		}
		fr.Cells[i] = r
		fr.Starts[i] = x.base + c.start
		fr.Makespan = max(fr.Makespan, x.base+r.Wall)
		rr.Attempts = append(rr.Attempts, Attempt{
			Start: x.base + c.start, End: x.base + r.Wall, ResumeUnit: a.resume,
		})
		rr.addIncidents(r.Incidents, x.base)
	}
	rr.Final, rr.Wall = fr.Cells[0], fr.Makespan
	return fr
}

// bury records a dead machine's attempt: its incidents up to the failure,
// the lost work (everything after the last committed checkpoint), the
// burst-log bytes that died undrained, and the attempt itself; after the
// last attempt, why the plan failed.
func (x *execution) bury(rt *runtime, resume int, nodeErr error, loss *fault.NodeLossEvent) {
	rr, base := &x.rr, x.base
	why := nodeErr
	if why == nil {
		// The loss froze the engine before any node program could observe
		// an error; the attempt is dead anyway.
		why = fmt.Errorf("compute node %d lost at %v", loss.Node, loss.At)
	}
	// The attempt ends at the first node failure.
	failedAt := rt.m.Eng.Now()
	if loss != nil {
		failedAt = loss.At
	}
	if f, ok := rt.app.(interface{ FailedAt() (sim.Time, bool) }); ok {
		if at, ok := f.FailedAt(); ok {
			failedAt = at
		}
	}
	if rt.inj != nil {
		// The attempt was abandoned at failedAt: anything the injector
		// timeline says happened after that (a rebuild completing in the
		// dead machine's engine) didn't.
		rr.addIncidents(capIncidents(rt.inj, failedAt), base)
	}
	rr.addIncidents(fault.CorruptionIncidents(rt.m.PFS.IntegrityEvents()), base)
	x.carried = rt.m.PFS.HarvestCorruption()
	if rt.burst != nil {
		// Undrained log content dies with the attempt: it was committed to
		// volatile node memory, never to the PFS. Checkpoint generations
		// with pending records are not restartable.
		und := rt.burst.UndrainedFiles()
		for _, b := range und {
			rr.BurstLostBytes += b
		}
		if x.coord != nil {
			x.coord.RejectUndrained(und)
		}
	}
	lostFrom := base
	if x.coord != nil && x.coord.Have() && x.coord.LastCommitAt() > base {
		lostFrom = x.coord.LastCommitAt()
	}
	rr.LostWork += base + failedAt - lostFrom
	rr.Attempts = append(rr.Attempts, Attempt{
		Start: base, End: base + failedAt, ResumeUnit: resume,
		Failed: true, Err: why.Error(),
	})
	x.base += failedAt + x.RestartCost
	x.attempt++
	switch {
	case x.MaxAttempts == 1:
		// A killed job still reports the machine as the failure left it
		// (CorruptionSweep tallies its integrity).
		rr.killed = rt.report()
		x.deathErr = rt.jobErr(nodeErr, loss)
	case x.attempt == x.MaxAttempts:
		x.deathErr = fmt.Errorf("core: %s did not complete within %d attempts (%d failures)",
			x.App, x.MaxAttempts, len(rr.Attempts))
	}
}

// appErr lets an attempt surface failures collected inside node programs.
type appErr interface{ Err() error }

// failure reads the failures a completed engine run can hide: the
// node-program error collected inside the application, and the compute-node
// loss that halted the engine.
func (rt *runtime) failure() (nodeErr error, loss *fault.NodeLossEvent) {
	if ae, ok := rt.app.(appErr); ok {
		nodeErr = ae.Err()
	}
	if rt.inj != nil {
		if nl, ok := rt.inj.FirstNodeLoss(); ok {
			loss = &nl
		}
	}
	return nodeErr, loss
}

// jobErr is the error a killed job returns: the job was killed, like the
// real machine would.
func (rt *runtime) jobErr(nodeErr error, loss *fault.NodeLossEvent) error {
	if nodeErr != nil {
		// Node-program failures are the root cause; a deadlock from the
		// abandoned barrier group is their symptom.
		return fmt.Errorf("%s: %w", rt.s.App, nodeErr)
	}
	return fmt.Errorf("%s: compute node %d lost at %v (%d undrained burst-log bytes)",
		rt.s.App, loss.Node, loss.At, loss.UndrainedBytes)
}
