// Sharded fleet execution: many machine cells on a conservative-parallel
// fabric.
//
// The paper characterized one 128-node partition against 16 I/O nodes; the
// roadmap's what-if sweeps want fleets orders of magnitude past that. A
// fleet here is N machine cells — each a complete Machine (mesh, PFS,
// tracers) running its own instance of the study's application — placed on
// one fabric shard each, plus a coordinator shard that launches the cells
// with a configurable stagger over the simulated interconnect. The
// coordinator's launch mail is real cross-shard traffic bounded by the mesh
// lookahead; once it quiesces, every cell's horizon is unbounded and the
// cells execute concurrently on up to Shards OS threads.
//
// Determinism: each cell's engine consumes only its own events plus mail
// delivered in the fabric's canonical order, so a cell's trace is a pure
// function of the study and its index — the shard/worker count can only
// change wall-clock time, never results. The serial engine (Shards=1)
// remains the regression oracle; TestFleetByteIdenticalAcrossShardCounts
// holds the fleet to it for every app × mode × feature combination.
package core

import "repro/internal/sim"

// FleetOptions configure a sharded fleet run.
type FleetOptions struct {
	// Cells is the number of independent machine cells (>= 1); 0 runs the
	// study on a machine of its own, outside the fabric.
	Cells int

	// Stagger is the launch delay between consecutive cells, modeling a
	// fleet scheduler dispatching jobs in sequence. Zero launches every
	// cell one mesh lookahead after time zero.
	Stagger sim.Time

	// Shards bounds how many cells execute concurrently: 0 = GOMAXPROCS,
	// 1 = the serial oracle.
	Shards int

	// Seed derives each shard's RNG substream and, for cells past the
	// first, their fault-plan seeds (cell 0 keeps the study's own
	// FaultSeed, so a one-cell fleet realizes the exact serial timeline).
	Seed uint64
}

// FleetReport is the outcome of a fleet run: one full study report per cell
// in cell order, plus fleet-level aggregates.
type FleetReport struct {
	Cells []*Report

	// Starts records each cell's launch instant on the shared virtual
	// clock; Makespan is the latest cell finish.
	Starts   []sim.Time
	Makespan sim.Time

	// Fabric holds the conservative protocol's counters for the run.
	Fabric sim.FabricStats
}

// RunFleet executes opts.Cells instances of the study as a sharded fleet,
// one attempt per cell (see Execute). Results are byte-identical at every
// Shards value; errors are reported for the lowest-indexed failing cell,
// mirroring the sweep executor's deterministic error choice.
func RunFleet(s Study, opts FleetOptions) (*FleetReport, error) {
	_, fr, err := Execute(Plan{Study: s, Fleet: opts, MaxAttempts: 1})
	return fr, err
}

// ShardedOptions are RunSharded's options. Every field is accepted and
// ignored: a single machine always runs on one engine.
type ShardedOptions struct {
	IOShards int
	Workers  int
	Seed     uint64
}

// ShardedReport is RunSharded's outcome: the study's report, plus fabric
// counters that stay zero because no fabric runs.
type ShardedReport struct {
	*Report

	Fabric sim.FabricStats
}

// RunSharded runs the study through Run, whatever opts say.
func RunSharded(s Study, opts ShardedOptions) (*ShardedReport, error) {
	r, err := Run(s)
	if err != nil {
		return nil, err
	}
	return &ShardedReport{Report: r}, nil
}
