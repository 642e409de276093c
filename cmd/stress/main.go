// Command stress runs an application under a chaos scenario — disk failures
// degrading RAID-3 arrays, I/O-node outages, latency storms — with
// checkpoint/restart, and prints the resilience report: the attempt history,
// the realized incident timeline, fault exposure, per-fault latency impact,
// and the checkpoint-overhead-versus-lost-work accounting.
//
// Scenarios come from a built-in catalog (-scenario) or a JSON file
// (-config). Everything is seeded: two runs with the same flags produce
// byte-identical reports.
//
// Usage:
//
//	stress -scenario outage -seed 7
//	stress -scenario disks -sweep 0,1,2,4
//	stress -config chaos.json -app escat -ckpt-interval 2
//	stress -scenario none -corrupt all -scrub -deadline 0.5 -retries 4
//	stress -scenario none -burst -burst-mb 64 -compress 1.8
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/profiling"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stress: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "scenario" {
		return runScenarioCmd(args[1:], out)
	}
	c, err := parse(args)
	if err != nil {
		return err
	}
	exec.SetWorkers(c.parallel)
	if err := c.prof.Start(); err != nil {
		return err
	}
	defer c.prof.Stop()

	plan, _, err := c.sc.Build()
	if err != nil {
		return err
	}

	if c.sweep != "" {
		intervals, err := parseIntervals(c.sweep)
		if err != nil {
			return err
		}
		pts, err := core.TradeoffSweep(plan, intervals)
		if err != nil {
			return err
		}
		fmt.Fprint(out, analysis.RenderTradeoff(pts))
		return nil
	}

	rr, _, err := core.Execute(plan)
	if err != nil {
		return err
	}
	printResilientReport(out, rr)
	return nil
}

// command is the flag-mode command line: the scenario the flags are
// shorthand for, and how to run it.
type command struct {
	sc       *scenario.Scenario
	sweep    string
	parallel int
	prof     *profiling.Flags
}

// parse reads the command line into a validated scenario: the built-in
// chaos plan or -config file, and the feature and run flags.
func parse(args []string) (*command, error) {
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	c := &command{}
	app := fs.String("app", "escat", "application to stress (escat, render, htf)")
	small := fs.Bool("small", true, "reduced-scale configuration (chaos scenarios are tuned to it)")
	plan := fs.String("scenario", "outage", "built-in scenario: outage, disks, storm, mixed, none")
	config := fs.String("config", "", "chaos file: the scenario DSL's chaos section at top level (deprecated alias; prefer 'stress scenario run FILE')")
	seed := fs.Uint64("seed", 0, "seed for the fault schedule's random choices")
	interval := fs.Int("ckpt-interval", 2, "work units between checkpoints (0 = no checkpointing)")
	ckptBytes := fs.Int64("ckpt-bytes", 4096, "checkpoint bytes written per node")
	restartCost := fs.Float64("restart-cost", 1.5, "fixed restart charge in seconds")
	maxAttempts := fs.Int("max-attempts", 8, "give up after this many attempts")
	failover := fs.Bool("failover", true, "enable PFS request failover (off: any outage kills the attempt)")
	replicate := fs.Bool("replicate", true, "mirror stripes so reads survive outages")
	features := cliflags.AddFeatures(fs)
	features.AddFlushOnFail(fs)
	chaosWindow := fs.Float64("chaos-window", 600, "stop injecting corruption (and scrubbing) after this many simulated seconds")
	fs.StringVar(&c.sweep, "sweep", "", "comma-separated checkpoint intervals to sweep (e.g. 0,1,2,4)")
	fs.IntVar(&c.parallel, "parallel", 0, "worker goroutines for -sweep (0 = GOMAXPROCS); results are identical at any setting")
	c.prof = profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	sc := &scenario.Scenario{
		Name:     "flags",
		Seed:     *seed,
		Workload: scenario.Workload{App: *app},
		Features: scenario.Features{Failover: &scenario.FailoverFeature{
			Enabled: *failover, Replicate: *failover && *replicate,
		}},
		Run: scenario.RunPolicy{
			CkptInterval: interval, CkptBytes: ckptBytes,
			RestartCostS: restartCost, MaxAttempts: *maxAttempts,
		},
	}
	if !*small {
		sc.Workload.Scale = "paper"
	}
	var err error
	if *config != "" {
		// The deprecated -config alias: a standalone chaos file, exactly
		// the DSL's chaos section at top level, so old files keep working.
		sc.Chaos, err = scenario.LoadChaos(*config)
	} else {
		sc.Chaos, err = builtinChaos(*plan)
	}
	if err != nil {
		return nil, err
	}
	if sc.Chaos.WindowS == 0 {
		sc.Chaos.WindowS = *chaosWindow
	}
	features.Fill(sc)
	c.sc = sc
	return c, sc.Validate()
}

// printResilientReport renders the standard stress report sections; the
// scenario runner shares it so scenario-driven and flag-driven runs of the
// same study print byte-identical reports.
func printResilientReport(out io.Writer, rr *core.ResilientReport) {
	printAttempts(out, rr.Attempts)
	printIncidents(out, rr.Incidents)
	if rr.Final != nil && rr.Final.Cache != nil {
		fmt.Fprintln(out, analysis.RenderCacheReport(rr.Final.Cache))
	}
	if rr.Final != nil && rr.Final.Integrity != nil {
		fmt.Fprintln(out, analysis.RenderIntegrityReport(rr.Final.Integrity))
	}
	if rr.Final != nil && rr.Final.Collective != nil {
		fmt.Fprintln(out, analysis.RenderCollectiveReport(rr.Final.Collective))
	}
	if rr.Final != nil && len(rr.Final.Sched) > 0 {
		fmt.Fprintln(out, analysis.RenderSchedReport(rr.Final.Sched))
	}
	if rr.Final != nil && rr.Final.Burst != nil {
		fmt.Fprintln(out, analysis.RenderBurstReport(rr.Final.Burst))
	}
	fmt.Fprint(out, analysis.RenderResilience(rr.Resilience()))
}

// builtinChaos returns a built-in scenario's chaos section, tuned to the
// small ESCAT run (~7.5 simulated seconds): the faults land after the first
// checkpoint commit and across the quadrature writes.
func builtinChaos(name string) (scenario.Chaos, error) {
	disks := []scenario.ChaosEvent{
		{Kind: "disk-failure", AtS: 2, Node: 0},
		{Kind: "disk-failure", AtS: 3, Node: 1},
	}
	outage := scenario.ChaosCascade{Kind: "ionode-outage", AtS: 4.2, Nodes: 16, FirstNode: 0, DurationS: 1.2}
	storm := scenario.ChaosEvent{
		Kind: "latency-storm", AtS: 2, Node: scenario.NodeRef(fault.AnyNode),
		DurationS: 4, Factor: 4,
	}
	switch name {
	case "none":
		return scenario.Chaos{}, nil
	case "outage":
		return scenario.Chaos{Cascades: []scenario.ChaosCascade{outage}}, nil
	case "disks":
		return scenario.Chaos{Events: disks}, nil
	case "storm":
		return scenario.Chaos{Events: []scenario.ChaosEvent{storm}}, nil
	case "mixed":
		return scenario.Chaos{
			Events:   append(disks, storm),
			Cascades: []scenario.ChaosCascade{outage},
		}, nil
	}
	return scenario.Chaos{}, fmt.Errorf("unknown scenario %q (want outage, disks, storm, mixed, none)", name)
}

func parseIntervals(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -sweep interval %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func printAttempts(out io.Writer, attempts []core.Attempt) {
	fmt.Fprintf(out, "Attempts:\n")
	fmt.Fprintf(out, "  %3s %12s %12s %12s %6s  %s\n",
		"#", "start", "end", "wall", "from", "outcome")
	for i, a := range attempts {
		outcome := "completed"
		if a.Failed {
			outcome = "failed: " + a.Err
		}
		fmt.Fprintf(out, "  %3d %11.3fs %11.3fs %11.3fs %6d  %s\n",
			i+1, a.Start.Seconds(), a.End.Seconds(), a.Wall().Seconds(),
			a.ResumeUnit, outcome)
	}
	fmt.Fprintln(out)
}

func printIncidents(out io.Writer, incidents []fault.Incident) {
	if len(incidents) == 0 {
		return
	}
	fmt.Fprintf(out, "Incidents:\n")
	fmt.Fprintf(out, "  %12s %12s %6s %-14s %s\n", "start", "end", "node", "kind", "note")
	for _, inc := range incidents {
		fmt.Fprintf(out, "  %11.3fs %11.3fs %6d %-14s %s\n",
			inc.Start.Seconds(), inc.End.Seconds(), inc.Node, inc.Kind, inc.Note)
	}
	fmt.Fprintln(out)
}
