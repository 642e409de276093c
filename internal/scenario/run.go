package scenario

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Result is one executed scenario: the run's report, the measured
// quantities, and the assertion verdict.
type Result struct {
	Scenario *Scenario
	Fleet    *Fleet

	// Report is the attempt-level report (core.Execute); non-nil even when
	// the run exhausted its attempts. RunErr is the driver's completion
	// error.
	Report *core.ResilientReport
	RunErr error

	// FleetRun is the per-cell report: the cells of a scenario with
	// fleet_gen.cells > 1, the one machine otherwise. Nil when the run did
	// not complete.
	FleetRun *core.FleetReport

	M      Measurements
	Checks []Check
}

// Pass reports the scenario's verdict: every configured assertion holds.
// Scenarios without assertions pass whenever the run's outcome was not a
// surprise error (a failed run with no assertions is still a pass — the
// scenario simply recorded what happened).
func (r *Result) Pass() bool { return Passed(r.Checks) }

// Execute builds and runs the scenario. An error return means the scenario
// could not run at all (bad configuration, or a fleet cell that failed); an
// unfinished run is not an error — it surfaces as Outcome "failed" for the
// assertions to judge.
func (r *Scenario) Execute() (*Result, error) {
	plan, fleet, err := r.Build()
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: r, Fleet: fleet}
	res.Report, res.FleetRun, res.RunErr = core.Execute(plan)
	if res.Report == nil {
		// No report at all: the plan itself was rejected or a cell failed.
		return nil, r.fail(res.RunErr)
	}
	res.M = Measure(res.Report, res.RunErr)
	res.Checks = r.Assertions.Evaluate(res.M)
	return res, nil
}

// RenderFleetRun formats the fleet-level outcome of a multi-cell run; empty
// for a single machine, which runs outside the fabric.
func RenderFleetRun(fr *core.FleetReport) string {
	if fr == nil || fr.Fabric.Shards == 0 {
		return ""
	}
	return fmt.Sprintf("Fleet run: %d cells on %d shards (%d workers), %d launch mails, makespan %.3fs\n",
		len(fr.Cells), fr.Fabric.Shards, fr.Fabric.Workers, fr.Fabric.Mail, fr.Makespan.Seconds())
}

// RenderFleet formats the realized fleet as a report section; empty for the
// default homogeneous shape with instant startup.
func RenderFleet(f *Fleet) string {
	if f == nil || (len(f.Assignment) == 0 && len(f.Startup) == 0) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet:\n")
	if len(f.Assignment) > 0 {
		// Group consecutive nodes sharing a template for a compact layout.
		fmt.Fprintf(&b, "  %d I/O nodes: %s\n", f.IONodes, layout(f.Assignment))
		byT := map[string]int{}
		for _, name := range f.Assignment {
			byT[name]++
		}
		for _, name := range uniqueInOrder(f.Assignment) {
			fmt.Fprintf(&b, "  template %-12s x%d\n", name, byT[name])
		}
	}
	if len(f.Startup) > 0 {
		last := f.Startup[len(f.Startup)-1]
		fmt.Fprintf(&b, "  startup: %d nodes online late, last (node %d) at %.3fs\n",
			len(f.Startup), last.Node, last.Duration.Seconds())
	}
	return b.String()
}

// RenderChecks formats the assertion section: the verdict plus every bound,
// violated bounds called out with their measured value.
func RenderChecks(name string, m Measurements, checks []Check) string {
	var b strings.Builder
	verdict := "PASS"
	if !Passed(checks) {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "Assertions (%s): %s\n", name, verdict)
	fmt.Fprintf(&b, "  outcome %s", m.Outcome)
	if m.CompletionErr != "" {
		fmt.Fprintf(&b, "  (%s)", m.CompletionErr)
	}
	fmt.Fprintln(&b)
	for _, c := range checks {
		status := "ok"
		if !c.Pass {
			status = "VIOLATED"
		}
		fmt.Fprintf(&b, "  %-22s bound %-12s actual %-12s %s\n", c.Name, c.Bound, c.Actual, status)
	}
	if len(checks) == 0 {
		fmt.Fprintf(&b, "  (no assertions configured)\n")
	}
	return b.String()
}

// layout compresses a per-node template assignment into "0-3:fast 4-15:slow"
// runs.
func layout(assign []string) string {
	var parts []string
	for i := 0; i < len(assign); {
		j := i
		for j+1 < len(assign) && assign[j+1] == assign[i] {
			j++
		}
		if i == j {
			parts = append(parts, fmt.Sprintf("%d:%s", i, assign[i]))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d:%s", i, j, assign[i]))
		}
		i = j + 1
	}
	return strings.Join(parts, " ")
}

func uniqueInOrder(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
