package core

import (
	"errors"
	"fmt"

	"repro/internal/exec"
)

// sweepCell is one run of a sweep: its plan, and the name the sweep's
// errors give it.
type sweepCell struct {
	name string
	plan Plan
}

// runSweep is the one runner behind every simulation sweep: it executes the
// cells' plans as one job each on the executor and returns row's reading of
// each report, in cell order. An error names the sweep and the cell:
// "<sweep>: <cell>: <err>". A job killed by an error wrapping survive is a
// result, not a failure: row sees its report with Final nil
// (CorruptionSweep tallies such cells).
func runSweep[R any](sweep string, cells []sweepCell, survive error, row func(i int, rr *ResilientReport) R) ([]R, error) {
	return exec.Map(cells, func(i int, c sweepCell) (R, error) {
		rr, _, err := Execute(c.plan)
		if err != nil && (survive == nil || rr == nil || !errors.Is(err, survive)) {
			var zero R
			return zero, fmt.Errorf("%s: %s: %w", sweep, c.name, err)
		}
		return row(i, rr), nil
	})
}

func final(_ int, rr *ResilientReport) *Report { return rr.Final }

// pairCells lists a baseline (side 0) and an alternative (side 1) plan for
// every item — [item0 base, item0 alt, item1 base, ...], so every simulation
// fans out — named "<item> <side label>".
func pairCells[T any](items []T, sides [2]string, plan func(item T, side int) Plan) []sweepCell {
	cells := make([]sweepCell, 0, 2*len(items))
	for _, it := range items {
		for side, label := range sides {
			cells = append(cells, sweepCell{fmt.Sprintf("%v %s", it, label), plan(it, side)})
		}
	}
	return cells
}

// job is the plan that runs the study once, as Run does.
func job(s Study) Plan { return Plan{Study: s, MaxAttempts: 1} }

// sweepStudy returns the study an app-by-app sweep runs: the paper-scale
// run, or the reduced one when small.
func sweepStudy(app AppID, small bool) Study {
	if small {
		return SmallStudy(app)
	}
	return PaperStudy(app)
}
