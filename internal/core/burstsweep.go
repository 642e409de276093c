package core

import (
	"repro/internal/analysis"
	"repro/internal/burst"
	"repro/internal/ckpt"
)

// OutputPrefixes returns the file-name prefixes of an application's bulk
// write traffic, for routing ordinary output through the burst log (the
// iochar command's -burst mode; none of the paper's applications use M_LOG,
// and outside a resilient run there is no checkpoint traffic to absorb).
func OutputPrefixes(app AppID) []string {
	switch app {
	case ESCAT:
		return []string{"escat.quad", "escat.sys"}
	case RENDER:
		return []string{"frame"}
	case HTF:
		return []string{"integrals.", "pscf.scratch", "htf."}
	}
	return nil
}

// BurstSweep runs each of the paper's three applications twice — writing
// straight to the PFS, then through the burst tier — under the same
// checkpoint policy, and reports the makespan and checkpoint-stall changes.
// ESCAT and HTF checkpoint their work loops, producing exactly the bursty
// write traffic the tier absorbs; RENDER has no checkpointer, so its frame
// outputs are routed through the log by name prefix and its row isolates the
// tier's effect on ordinary output writes.
func BurstSweep(small bool, ck ckpt.Config, bcfg burst.Config) ([]analysis.BurstComparison, error) {
	bcfg.Enabled = true
	apps := Apps()
	out, err := runSweep("burst sweep", pairCells(apps, [2]string{"direct", "burst"}, func(app AppID, side int) Plan {
		p := job(sweepStudy(app, small))
		if side == 1 {
			p.Burst = bcfg
			if app == RENDER {
				p.Burst.Prefixes = append(OutputPrefixes(RENDER), bcfg.Prefixes...)
			}
		}
		if app != RENDER {
			// RENDER has no work-unit loop to checkpoint.
			p.Ckpt = ck
		}
		return p
	}), nil, func(_ int, rr *ResilientReport) *ResilientReport { return rr })
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.BurstComparison, 0, len(apps))
	for i, app := range apps {
		direct, withTier := out[2*i], out[2*i+1]
		rows = append(rows, analysis.BurstComparison{
			Name:        string(app),
			DirectWall:  direct.Wall,
			BurstWall:   withTier.Wall,
			DirectStall: direct.Ckpt.Overhead,
			BurstStall:  withTier.Ckpt.Overhead,
			Report:      withTier.Final.Burst,
		})
	}
	return rows, nil
}
