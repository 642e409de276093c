// Package core is the public face of the reproduction: it composes a
// simulated Paragon, one of the paper's three application skeletons, the
// Pablo instrumentation, optional PPFS policies, and the analysis tools into
// a single Run call that yields every table and figure of the paper for that
// application.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/apps/escat"
	"repro/internal/apps/htf"
	"repro/internal/apps/render"
	"repro/internal/burst"
	"repro/internal/collective"
	"repro/internal/fault"
	"repro/internal/ionode"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/ppfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AppID names one of the characterized applications.
type AppID string

// The three applications of the paper's initial SIO code suite.
const (
	ESCAT  AppID = "escat"
	RENDER AppID = "render"
	HTF    AppID = "htf"
)

// Apps lists the available applications.
func Apps() []AppID { return []AppID{ESCAT, RENDER, HTF} }

// Study describes one characterization run.
type Study struct {
	App     AppID
	Machine workload.MachineConfig

	// Policy, when non-nil, routes the application through a PPFS layer
	// with these policies (the §5.2 experiment); nil runs on raw PFS.
	Policy *ppfs.Policy

	// Burst, when enabled, interposes the per-compute-node burst-buffer
	// tier between the application and the PFS (checkpoint and M_LOG
	// writes commit locally and drain in the background). Mutually
	// exclusive with Policy — both are client-side layers over the same
	// seam.
	Burst burst.Config

	// KeepTrace buffers the full event trace (needed for figures); when
	// false only real-time reductions run (Pablo's low-perturbation mode).
	KeepTrace bool

	// WindowWidth sets the time-window reduction granularity (default 10s).
	WindowWidth sim.Time

	// Faults is the chaos schedule injected into the machine. The zero
	// plan injects nothing and leaves the run bit-identical to a build
	// without the fault subsystem. FaultSeed seeds the plan's random
	// choices (exponential arrivals, AnyNode targets).
	Faults    fault.Plan
	FaultSeed uint64

	// Optional per-application overrides; nil selects the paper-scale
	// defaults.
	ESCATConfig  *escat.Config
	RENDERConfig *render.Config
	HTFConfig    *htf.Config
}

// PaperStudy returns the study reproducing the paper's traced run of app.
func PaperStudy(app AppID) Study {
	s := Study{App: app, KeepTrace: true, WindowWidth: 10 * sim.Second}
	switch app {
	case ESCAT:
		s.Machine = escat.MachineConfig()
	case RENDER:
		s.Machine = render.MachineConfig()
	case HTF:
		s.Machine = htf.MachineConfig()
	}
	return s
}

// SmallStudy returns a fast, reduced-scale study of app (for tests and the
// quickstart example).
func SmallStudy(app AppID) Study {
	s := PaperStudy(app)
	switch app {
	case ESCAT:
		cfg := escat.SmallConfig()
		s.ESCATConfig = &cfg
		s.Machine.ComputeNodes = cfg.Nodes
	case RENDER:
		cfg := render.SmallConfig()
		s.RENDERConfig = &cfg
		s.Machine.ComputeNodes = cfg.RenderNodes + 1
	case HTF:
		cfg := htf.SmallConfig()
		s.HTFConfig = &cfg
		s.Machine.ComputeNodes = cfg.Nodes
	}
	return s
}

// Report is the outcome of a study: the captured traces plus the derived
// tables and reductions.
type Report struct {
	App  AppID
	Wall sim.Time

	// Events is the application-visible trace; Physical differs from it
	// only when a PPFS policy layer was interposed.
	Events   []iotrace.Event
	Physical []iotrace.Event

	Summary analysis.OpSummary
	Sizes   analysis.SizeTable

	Lifetime *pablo.LifetimeReducer
	Windows  *pablo.WindowReducer

	// PolicyStats is non-nil when the study ran through PPFS.
	PolicyStats *ppfs.Stats

	// Incidents is the realized fault timeline (empty without a fault
	// plan); Failover the PFS failover counters.
	Incidents []fault.Incident
	Failover  pfs.FailoverStats

	// Repair holds the replication repair control plane's counters (all
	// zeros when it is off); ReplicationFactor the effective copies per
	// chunk (1 = no replication).
	Repair            pfs.RepairStats
	ReplicationFactor int
	repairOn          bool

	// phases splits Events by phase label on first use (see phaseEvents);
	// Events must not change after that.
	phaseOnce sync.Once
	phases    map[string][]iotrace.Event

	// Cache is the I/O-node cache effectiveness report; nil when the
	// study ran without caching.
	Cache *analysis.CacheReport

	// Integrity is the end-to-end data-integrity report; nil when the
	// study ran without the checksum layer.
	Integrity *analysis.IntegrityReport

	// Collective holds the two-phase aggregation counters; nil when the
	// study ran without collective I/O.
	Collective *collective.Stats

	// Burst is the burst-tier report; nil when the study ran without the
	// tier.
	Burst *analysis.BurstReport

	// Sched is the per-I/O-node disk-scheduler report; empty when the nodes
	// ran the legacy FIFO queue.
	Sched []ionode.SchedStats

	// PhysRequests counts the physical array requests the I/O nodes served —
	// the quantity collective aggregation collapses.
	PhysRequests int64
}

// appErr lets Run surface failures collected inside node programs.
type appErr interface{ Err() error }

// runtime bundles everything one simulation attempt needs: the machine, the
// instrumented file system stack, and the application.
type runtime struct {
	m          *workload.Machine
	fs         workload.FS
	tracer     *pablo.Tracer
	physTracer *pablo.Tracer
	lifetime   *pablo.LifetimeReducer
	windows    *pablo.WindowReducer
	layer      *ppfs.FileSystem
	burst      *burst.Tier
	app        workload.App
}

// prepare builds a fresh runtime for one attempt of the study on eng (a
// fleet cell's shard engine), or on a fresh engine of its own when eng is
// nil. It merges the paper defaults into a study without a machine shape,
// and returns the study it prepared. app, when non-nil, is the workload to
// run; nil builds the study's own application.
func prepare(s Study, eng *sim.Engine, app workload.App) (Study, *runtime, error) {
	if s.Machine.ComputeNodes == 0 {
		s = mergeDefaults(s)
	}
	if s.WindowWidth <= 0 {
		s.WindowWidth = 10 * sim.Second
	}
	if eng == nil {
		eng = sim.NewEngine()
	}
	m, err := workload.NewMachineOn(eng, s.Machine)
	if err != nil {
		return s, nil, err
	}
	rt := &runtime{m: m}
	if err := rt.stack(s, app); err != nil {
		rt.retire()
		return s, nil, err
	}
	return s, rt, nil
}

// stack builds the instrumented file-system stack and the application above
// the runtime's machine: tracers and reducers, the optional PPFS or burst
// layer, and app (the study's own application when nil).
func (rt *runtime) stack(s Study, app workload.App) error {
	m := rt.m
	var err error
	rt.tracer = pablo.NewTracer(s.KeepTrace)
	rt.lifetime = pablo.NewLifetimeReducer()
	rt.windows = pablo.NewWindowReducer(s.WindowWidth)
	rt.tracer.Attach(rt.lifetime)
	rt.tracer.Attach(rt.windows)

	if s.Policy != nil {
		rt.physTracer = pablo.NewTracer(s.KeepTrace)
		m.PFS.SetRecorder(rt.physTracer)
		rt.layer, err = ppfs.New(m.Eng, m.PFS, *s.Policy)
		if err != nil {
			return err
		}
		rt.layer.SetRecorder(rt.tracer)
		rt.fs = rt.layer
	} else {
		m.PFS.SetRecorder(rt.tracer)
		rt.fs = workload.WrapPFS(m.PFS)
	}
	if s.Burst.Enabled {
		if s.Policy != nil {
			return fmt.Errorf("core: the burst tier and a PPFS policy layer are mutually exclusive")
		}
		rt.burst, err = burst.New(m.Eng, m.PFS, m.Nodes, s.Burst)
		if err != nil {
			return err
		}
		rt.fs = rt.burst
	}

	rt.app = app
	if app == nil {
		if rt.app, err = buildApp(s); err != nil {
			return err
		}
	}
	// Size the capture buffers once, before the first event, so the
	// per-event capture path never copies the trace to grow it.
	if ts, ok := rt.app.(workload.TraceSizer); ok {
		rt.tracer.Reserve(ts.TraceEvents())
		if rt.physTracer != nil {
			rt.physTracer.Reserve(ts.TraceEvents())
		}
	}
	return nil
}

// retire unwinds whatever the attempt left parked on the machine's engine
// (see sim.Engine.Retire). Every run path calls it once the attempt is over —
// finished, failed or abandoned — so no attempt outlives its report.
func (rt *runtime) retire() { rt.m.Eng.Retire() }

// faultEvents materializes the study's discrete fault schedule; nil for a
// plan without one.
func faultEvents(s Study) []fault.Event {
	if s.Faults.Empty() {
		return nil
	}
	return s.Faults.Materialize(s.FaultSeed, s.Machine.PFS.IONodes, s.Machine.ComputeNodes)
}

// inject arms the study's fault plan against the runtime's machine: discrete
// events via the injector, corruption via the checksum stores' write-path
// policies and bit-rot drivers. It returns a nil injector when no discrete
// events are scheduled (no injector processes are spawned, so the healthy
// path is untouched; corruption may still be armed).
func (rt *runtime) inject(s Study, events []fault.Event) *fault.Injector {
	fs := rt.m.PFS
	if !s.Faults.Corruption.Empty() {
		fault.ArmCorruption(rt.m.Eng, fs.IONodes(), s.Faults.Corruption, s.FaultSeed)
	}
	if len(events) == 0 {
		return nil
	}
	hooks := fault.NodeLossHooks{Nodes: rt.m.Nodes, Halt: rt.m.Eng.Stop}
	if rt.burst != nil {
		hooks.Undrained = rt.burst.UndrainedNode
	}
	if fs.RepairEnabled() {
		hooks.OnOutageStart = fs.NoteOutageStart
		hooks.OnOutageEnd = fs.NoteOutageEnd
	}
	return fault.Inject(rt.m.Eng, fs.IONodes(), events, hooks)
}

// clockPadded reports whether background processes (bit-rot drivers, the
// scrubber, collective straggler timers) keep the engine clock running past
// the application's finish, so the run's wall clock must come from the trace.
func (rt *runtime) clockPadded(s Study) bool {
	return !s.Faults.Corruption.Empty() || rt.m.PFS.ScrubWindowEnd() > 0 ||
		rt.m.PFS.CollectiveEnabled() || rt.m.PFS.RepairEnabled() || rt.burst != nil
}

// report assembles the study's report after a completed run.
func (rt *runtime) report(s Study) *Report {
	r := &Report{
		App:      s.App,
		Wall:     rt.m.Eng.Now(),
		Events:   rt.tracer.Events(),
		Summary:  analysis.Summarize(rt.tracer.Events()),
		Sizes:    analysis.Sizes(rt.tracer.Events()),
		Lifetime: rt.lifetime,
		Windows:  rt.windows,
		Failover: rt.m.PFS.FailoverStats(),
		Repair:   rt.m.PFS.RepairStats(),
	}
	r.ReplicationFactor = rt.m.PFS.ReplicationFactor()
	r.repairOn = rt.m.PFS.RepairEnabled()
	if rt.physTracer != nil {
		r.Physical = rt.physTracer.Events()
	} else {
		r.Physical = r.Events
	}
	if rt.layer != nil {
		st := rt.layer.Stats()
		r.PolicyStats = &st
	}
	r.Cache = analysis.BuildCacheReport(rt.m.PFS.CacheStats())
	if st, ok := rt.m.PFS.CollectiveStats(); ok {
		r.Collective = &st
	}
	if rt.burst != nil {
		r.Burst = analysis.BuildBurstReport(rt.burst.Stats(), r.Events)
	}
	r.Sched = rt.m.PFS.SchedStats()
	r.PhysRequests = rt.m.PFS.PhysRequests()
	if !s.Faults.Corruption.Empty() {
		// End-of-run audit: sweep every tracked block so latent corruption
		// is detected (and, where parity allows, repaired) before the report
		// tallies coverage. Accounting only — no simulated time.
		rt.m.PFS.AuditIntegrity()
	}
	r.Integrity = analysis.BuildIntegrityReport(
		rt.m.PFS.IntegrityStats(), rt.m.PFS.IntegrityEvents(), rt.m.PFS.ReliabilityStats())
	return r
}

// Run executes the study to completion. With a fault plan configured the run
// is a single attempt: an injected fault the application cannot absorb (via
// PFS failover) surfaces as an error, exactly like the real machine's job
// kill. Use RunResilient for checkpoint/restart semantics.
func Run(s Study) (*Report, error) {
	r, err := run(s, nil)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// run is Run with an optional workload in place of the study's own
// application (the mode sweeps pass a synthetic one). A job killed by a
// fault still returns a report beside jobErr's error: the tables and
// integrity tallies of the machine as the failure left it, without
// finishReport's wall-clock and incident corrections.
func run(s Study, app workload.App) (*Report, error) {
	s, rt, err := prepare(s, nil, app)
	if err != nil {
		return nil, err
	}
	defer rt.retire()
	inj := rt.inject(s, faultEvents(s))
	runErr := workload.Run(rt.m, rt.fs, rt.app)
	if err := jobErr(s, rt, inj); err != nil {
		return rt.report(s), err
	}
	if runErr != nil {
		return nil, runErr
	}
	return finishReport(s, rt, inj), nil
}

// attemptFailure reads the failures a completed engine run can hide: the
// node-program error collected inside the application, and the compute-node
// loss that halted the engine. Every run shape checks its attempts here.
func attemptFailure(rt *runtime, inj *fault.Injector) (nodeErr error, loss *fault.NodeLossEvent) {
	if ae, ok := rt.app.(appErr); ok {
		nodeErr = ae.Err()
	}
	if inj != nil {
		if nl, ok := inj.FirstNodeLoss(); ok {
			loss = &nl
		}
	}
	return nodeErr, loss
}

// jobErr is the error a single-attempt run (Run or a fleet cell)
// returns for a dead attempt: the job was killed, like the real machine
// would. nil when the attempt survived.
func jobErr(s Study, rt *runtime, inj *fault.Injector) error {
	nodeErr, loss := attemptFailure(rt, inj)
	if nodeErr != nil {
		// Node-program failures are the root cause; a deadlock from the
		// abandoned barrier group is their symptom.
		return fmt.Errorf("%s: %w", s.App, nodeErr)
	}
	if loss != nil {
		return fmt.Errorf("%s: compute node %d lost at %v (%d undrained burst-log bytes)",
			s.App, loss.Node, loss.At, loss.UndrainedBytes)
	}
	return nil
}

// finishReport assembles a successful attempt's report: the trace-derived
// tables, the wall-clock correction for runs whose background daemons
// outlive the application, and the realized incident timeline.
func finishReport(s Study, rt *runtime, inj *fault.Injector) *Report {
	r := rt.report(s)
	if inj != nil || rt.clockPadded(s) {
		// Injector drivers (a background rebuild, a not-yet-due storm) and
		// integrity daemons (scrubber, bit-rot arrivals) can outlive the
		// application; the run's wall clock is the application's own finish.
		// Without a kept trace the engine clock stands in.
		if end := lastEventEnd(r.Events); end > 0 {
			r.Wall = end
		}
	}
	if inj != nil {
		inj.CloseOpen(rt.m.Eng.Now())
		incs := inj.Incidents()
		if end := lastEventEnd(r.Events); end > 0 {
			// The incident timeline ends with the application too: faults
			// realized after its last operation affected nothing.
			incs = capIncidents(incs, end)
		}
		r.Incidents = incs
	}
	if r.Integrity != nil && len(r.Integrity.Events) > 0 {
		// Corruption incidents are not capped at the application's finish:
		// the scrubber legitimately detects and repairs latent errors after
		// the last application operation, and the report should say so.
		r.Incidents = mergeIncidents(r.Incidents, fault.CorruptionIncidents(r.Integrity.Events))
	}
	return r
}

// mergeIncidents interleaves two incident timelines by start time.
func mergeIncidents(a, b []fault.Incident) []fault.Incident {
	out := make([]fault.Incident, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func mergeDefaults(s Study) Study {
	d := PaperStudy(s.App)
	d.Policy = s.Policy
	d.Burst = s.Burst
	d.KeepTrace = s.KeepTrace
	if s.WindowWidth > 0 {
		d.WindowWidth = s.WindowWidth
	}
	d.ESCATConfig, d.RENDERConfig, d.HTFConfig = s.ESCATConfig, s.RENDERConfig, s.HTFConfig
	return d
}

func buildApp(s Study) (workload.App, error) {
	switch s.App {
	case ESCAT:
		cfg := escat.DefaultConfig()
		if s.ESCATConfig != nil {
			cfg = *s.ESCATConfig
		}
		return escat.New(cfg)
	case RENDER:
		cfg := render.DefaultConfig()
		if s.RENDERConfig != nil {
			cfg = *s.RENDERConfig
		}
		return render.New(cfg)
	case HTF:
		cfg := htf.DefaultConfig()
		if s.HTFConfig != nil {
			cfg = *s.HTFConfig
		}
		return htf.New(cfg)
	default:
		return nil, fmt.Errorf("core: unknown app %q", s.App)
	}
}

// PhaseSummary computes the operation summary for one application phase
// (HTF's per-program tables are phase summaries).
func (r *Report) PhaseSummary(phase string) analysis.OpSummary {
	return analysis.Summarize(r.phaseEvents(phase))
}

// PhaseSizes computes the size-bucket table for one phase.
func (r *Report) PhaseSizes(phase string) analysis.SizeTable {
	return analysis.Sizes(r.phaseEvents(phase))
}

// phaseEvents returns the events captured during the named phase, in trace
// order: analysis.FilterPhase(r.Events, phase), computed for every phase in
// one pass on first use and shared by later calls. The result may alias
// r.Events; callers must not modify it.
func (r *Report) phaseEvents(phase string) []iotrace.Event {
	r.phaseOnce.Do(func() { r.phases = splitPhases(r.Events) })
	return r.phases[phase]
}

// splitPhases partitions events by phase label, keeping trace order within
// each phase. Labels come in long runs: a phase that is one run of the trace
// is a sub-slice of events, and only a phase spread over several runs is
// gathered into an exact-size slice of its own.
func splitPhases(events []iotrace.Event) map[string][]iotrace.Event {
	runs := make(map[string][][]iotrace.Event)
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].Phase == events[i].Phase {
			j++
		}
		ph := events[i].Phase
		runs[ph] = append(runs[ph], events[i:j:j])
		i = j
	}
	phases := make(map[string][]iotrace.Event, len(runs))
	for ph, rs := range runs {
		if len(rs) == 1 {
			phases[ph] = rs[0]
		} else {
			phases[ph] = slices.Concat(rs...)
		}
	}
	return phases
}

// Purposes classifies every file of the run into the §2 taxonomy
// (compulsory input/output, checkpoint, out-of-core).
func (r *Report) Purposes() []analysis.FilePurpose {
	return analysis.ClassifyPurposes(r.Events)
}

// PatternSummary aggregates the run's per-stream access patterns — the §10
// conclusions (sequentiality, fixed request sizes, open-access-close
// cycles).
func (r *Report) PatternSummary() analysis.PatternSummary {
	return analysis.SummarizePatterns(analysis.Patterns(r.Events))
}
