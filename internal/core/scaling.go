package core

import (
	"fmt"
	"strings"

	"repro/internal/apps/escat"
	"repro/internal/sim"
)

// ScalingPoint is one row of a node-scaling sweep.
type ScalingPoint struct {
	Nodes     int
	Wall      sim.Time // simulated wall clock
	IOTime    sim.Time // summed node time in I/O
	SeekWrite sim.Time // the contended quadrature path (ESCAT's bottleneck)
}

// ESCATScaling runs the ESCAT skeleton across compute-partition sizes with
// the per-node work held constant, quantifying how the shared-file
// small-write pattern scales — the paper's observation that production runs
// "generate similar behavior, but with ten to twenty hour executions on 512
// processors" and §8's warning that small-request patterns do not ride the
// hardware's parallelism.
func ESCATScaling(nodeCounts []int, iterations int) ([]ScalingPoint, error) {
	cells := make([]sweepCell, len(nodeCounts))
	for i, n := range nodeCounts {
		cfg := escat.DefaultConfig()
		cfg.Nodes = n
		cfg.Iterations = iterations
		cfg.ComputeStart = 20 * sim.Second
		cfg.ComputeEnd = 10 * sim.Second
		study := PaperStudy(ESCAT)
		study.ESCATConfig = &cfg
		study.Machine.ComputeNodes = n
		cells[i] = sweepCell{fmt.Sprintf("%d nodes", n), job(study)}
	}
	return runSweep("scaling sweep", cells, nil, func(i int, rr *ResilientReport) ScalingPoint {
		r := rr.Final
		pt := ScalingPoint{Nodes: nodeCounts[i], Wall: r.Wall, IOTime: r.Summary.Total.NodeTime}
		if w := r.Summary.Row("Write"); w != nil {
			pt.SeekWrite += w.NodeTime
		}
		if s := r.Summary.Row("Seek"); s != nil {
			pt.SeekWrite += s.NodeTime
		}
		return pt
	})
}

// RenderScaling formats a scaling sweep.
func RenderScaling(pts []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %14s %16s\n", "nodes", "wall", "I/O node-time", "seek+write time")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %11.1fs %13.1fs %15.1fs\n",
			p.Nodes, p.Wall.Seconds(), p.IOTime.Seconds(), p.SeekWrite.Seconds())
	}
	return b.String()
}
