// Command iochar runs one application under the simulated Paragon/PFS
// machine (optionally through the PPFS policy layer) and reports its I/O
// characterization: operation-summary and request-size tables, per-file
// lifetime summaries, and (optionally) an SDDF trace file.
//
// Usage:
//
//	iochar -app escat [-small] [-policy none|ppfs|adaptive]
//	       [-cache] [-cache-mb MB] [-prefetch=false]
//	       [-collective] [-aggregators N] [-sched cscan]
//	       [-burst] [-burst-mb MB] [-burst-drain MB/s] [-compress RATIO]
//	       [-trace FILE] [-trace-ascii] [-window SECONDS] [-figures DIR]
//	       [-mtbf SECONDS -seed N]
//	       [-corrupt all|bit-rot,torn-write,misdirected-write] [-scrub]
//	       [-deadline SECONDS] [-retries N]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/iotrace"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/sddf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iochar: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// command is iochar's parsed command line: the scenario to run and what to
// write besides the report.
type command struct {
	sc                                        *scenario.Scenario
	traceFile, summaryFile, jsonFile, figures string
	traceASCII                                bool
	shards                                    *cliflags.Shards
	prof                                      *profiling.Flags
}

// parse reads the command line into a validated scenario. A -scenario file
// drives the whole study — app, scale, policy, features, fleet and chaos;
// without one, the study flags are shorthand for the scenario they fill.
func parse(args []string) (*command, error) {
	fs := flag.NewFlagSet("iochar", flag.ContinueOnError)
	c := &command{}
	app := fs.String("app", "escat", "application to run (escat, render, htf)")
	small := fs.Bool("small", false, "reduced-scale configuration (fast)")
	policy := fs.String("policy", "none", "file system policy layer: none, ppfs, adaptive")
	fs.StringVar(&c.traceFile, "trace", "", "write the SDDF event trace to this file")
	fs.BoolVar(&c.traceASCII, "trace-ascii", false, "write the trace in ASCII SDDF instead of binary")
	fs.StringVar(&c.summaryFile, "summaries", "", "write the Pablo reductions as SDDF records to this file")
	fs.StringVar(&c.jsonFile, "json", "", "write the characterization results as JSON to this file")
	window := fs.Float64("window", 10, "time-window reduction width in seconds")
	fs.StringVar(&c.figures, "figures", "", "write figure CSV/ASCII files to this directory")
	features := cliflags.AddFeatures(fs)
	scenarioFile := fs.String("scenario", "", "declarative scenario file (YAML/JSON; overrides app, feature and chaos flags)")
	c.shards = cliflags.AddShards(fs)
	mtbf := fs.Float64("mtbf", 0, "inject I/O-node outages with this exponential mean time between failures in seconds (0 = none)")
	outage := fs.Float64("outage", 5, "duration in seconds of each injected outage")
	chaosWindow := fs.Float64("chaos-window", 600, "stop injecting faults after this many simulated seconds")
	seed := fs.Uint64("seed", 0, "seed for the injected-fault schedule")
	c.prof = profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if *scenarioFile != "" {
		c.sc, err = scenario.Load(*scenarioFile)
		return c, err
	}

	sc := &scenario.Scenario{
		Name:     "flags",
		Seed:     *seed,
		Workload: scenario.Workload{App: *app, Scale: "paper", Policy: *policy, WindowS: *window},
		Chaos:    scenario.Chaos{WindowS: *chaosWindow},
	}
	if *small {
		sc.Workload.Scale = "small"
	}
	// The paper's machine runs without failover. Chaos runs turn it on
	// with mirroring so the application survives the injected outages;
	// -rf > 1 and -corrupt turn it on through Features.Fill.
	sc.Features.Failover = &scenario.FailoverFeature{Enabled: *mtbf > 0, Replicate: *mtbf > 0}
	if *mtbf > 0 {
		sc.Chaos.Exps = []scenario.ChaosExp{{
			Kind: "ionode-outage", MeanBetweenS: *mtbf, EndS: *chaosWindow,
			Node: scenario.NodeRef(fault.AnyNode), DurationS: *outage,
		}}
	}
	features.Fill(sc)
	c.sc = sc
	return c, sc.Validate()
}

func run(args []string, out io.Writer) error {
	c, err := parse(args)
	if err != nil {
		return err
	}
	if err := c.prof.Start(); err != nil {
		return err
	}
	defer c.prof.Stop()

	// iochar runs a single attempt of the scenario (no restart loop; use
	// 'stress scenario run' for the resilience semantics).
	sc := c.sc
	rs, fleet, err := sc.Build()
	if err != nil {
		return err
	}
	study := rs.Study
	app := sc.Workload.App
	if study.Burst.Enabled {
		// iochar runs without checkpointing, so route the application's
		// bulk output files through the log by name prefix — otherwise the
		// tier would sit idle (no application in the suite uses M_LOG).
		study.Burst.Prefixes = append(core.OutputPrefixes(core.AppID(app)), study.Burst.Prefixes...)
	}
	if fl := scenario.RenderFleet(fleet); fl != "" {
		fmt.Fprint(out, fl)
	}
	var report *core.Report
	if fo, isFleet := sc.FleetOptions(c.shards.Count()); isFleet {
		// Multi-cell scenario: run the fleet on the sharded engine and
		// characterize the representative cell (cell 0 keeps the study's
		// own fault timeline).
		fr, err := core.RunFleet(study, fo)
		if err != nil {
			return err
		}
		fmt.Fprint(out, scenario.RenderFleetRun(fr))
		report = fr.Cells[0]
	} else if report, err = core.Run(study); err != nil {
		return err
	}

	fmt.Fprintf(out, "%s: wall clock %.2f s, %d I/O events\n\n", app, report.Wall.Seconds(), len(report.Events))
	for _, table := range report.Tables() {
		fmt.Fprintln(out, table)
	}
	printLifetimes(out, report)
	fmt.Fprintln(out, analysis.RenderPurposes(report.Purposes()))
	fmt.Fprintln(out, analysis.RenderPatternSummary(report.Events))
	fmt.Fprintln(out, analysis.RenderActivity(report.Windows, 72))
	if report.PolicyStats != nil {
		s := *report.PolicyStats
		fmt.Fprintf(out, "PPFS policy activity: %d buffered writes, %d direct, %d flush extents (mean %s), %d drains, %d prefetches\n\n",
			s.BufferedWrites, s.DirectWrites, s.Flushes,
			analysis.HumanBytes(s.MeanFlushExtent()), s.Drains, s.Prefetches)
	}
	if report.Cache != nil {
		fmt.Fprintln(out, analysis.RenderCacheReport(report.Cache))
	}
	if report.Collective != nil {
		fmt.Fprintln(out, analysis.RenderCollectiveReport(report.Collective))
	}
	if len(report.Sched) > 0 {
		fmt.Fprintln(out, analysis.RenderSchedReport(report.Sched))
	}
	if report.Burst != nil {
		fmt.Fprintln(out, analysis.RenderBurstReport(report.Burst))
	}
	if report.Integrity != nil {
		fmt.Fprintln(out, analysis.RenderIntegrityReport(report.Integrity))
	}
	if len(report.Incidents) > 0 {
		fmt.Fprintln(out, analysis.RenderResilience(report.Resilience()))
	}

	if c.traceFile != "" {
		f, err := os.Create(c.traceFile)
		if err != nil {
			return err
		}
		if err := sddf.WriteTrace(f, report.Events, c.traceASCII); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events -> %s\n", len(report.Events), c.traceFile)
	}

	if c.jsonFile != "" {
		f, err := os.Create(c.jsonFile)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "json -> %s\n", c.jsonFile)
	}

	if c.summaryFile != "" {
		f, err := os.Create(c.summaryFile)
		if err != nil {
			return err
		}
		if err := sddf.WriteSummaries(f, c.traceASCII, report.Lifetime, report.Windows, nil, report.Wall); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "summaries -> %s\n", c.summaryFile)
	}

	if c.figures != "" {
		if err := os.MkdirAll(c.figures, 0o755); err != nil {
			return err
		}
		for _, fig := range report.Figures() {
			f, err := os.Create(filepath.Join(c.figures, fig.ID+".csv"))
			if err != nil {
				return err
			}
			if err := analysis.WriteCSV(f, fig.Points); err != nil {
				return err
			}
			f.Close()
			txt := analysis.RenderScatter(fig.Points, analysis.PlotOptions{Title: fig.Title, LogY: fig.LogY})
			if err := os.WriteFile(filepath.Join(c.figures, fig.ID+".txt"), []byte(txt), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "figures: %d -> %s\n", len(report.Figures()), c.figures)
	}
	return nil
}

// printLifetimes shows the Pablo file-lifetime reduction.
func printLifetimes(out io.Writer, r *core.Report) {
	fmt.Fprintln(out, "File lifetime summary (Pablo reduction):")
	fmt.Fprintf(out, "%4s %8s %8s %8s %12s %12s %12s\n",
		"file", "reads", "writes", "seeks", "bytes read", "bytes written", "open time")
	for _, f := range r.Lifetime.Files() {
		fmt.Fprintf(out, "%4d %8d %8d %8d %12s %12s %12.2fs\n",
			f.File,
			f.Count[iotrace.OpRead]+f.Count[iotrace.OpAsyncRead],
			f.Count[iotrace.OpWrite],
			f.Count[iotrace.OpSeek],
			analysis.HumanBytes(f.BytesRead),
			analysis.HumanBytes(f.BytesWritten),
			f.FinalOpenTime(r.Wall).Seconds())
	}
	fmt.Fprintln(out)
}
