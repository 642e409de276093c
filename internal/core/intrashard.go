// Intra-machine sharding: one paper-scale run split across the conservative
// fabric.
//
// Where shard.go scales out (many machine cells, one shard each), this file
// scales one machine up: the compute partition — application processes,
// tracers, client-side policy layers — stays on a frontend shard, and the
// machine's I/O nodes are split round-robin across IOShards server shards.
// Every client↔I/O-node interaction (reads, writes, syncs, cache drains,
// integrity heals, repair copies, scatter-gather sweeps) crosses the fabric
// as mailbox mail whose delay is the mesh transfer cost, never below the mesh
// lookahead (SWLatency + HopLatency); replies return as zero-lookahead
// direct-wake mail on the fabric's reply edges.
//
// Determinism: for a fixed topology (IOShards), every mail delivery is
// ordered by the canonical (time, source shard, send sequence) key and every
// engine consumes a pure function of its own events plus that mail stream, so
// results are byte-identical at every Workers value — Workers=1 executes the
// exact same event interleaving inline on one OS thread and is the regression
// oracle the worker sweep is held to. Changing IOShards changes which
// same-instant replies share a source shard, i.e. a different (legal) tie
// order, so the oracle fixes the topology and sweeps only the worker bound.
package core

import (
	"fmt"

	"repro/internal/sim"
)

// ShardedOptions configure an intra-machine partitioned run.
type ShardedOptions struct {
	// IOShards is the number of I/O server shards the machine's I/O nodes
	// are split across (clamped to the I/O node count). Zero or negative
	// runs the study serially — RunSharded(s, ShardedOptions{}) is Run(s).
	IOShards int

	// Workers bounds how many shards execute concurrently: 0 = GOMAXPROCS,
	// 1 = the inline serial oracle (same results, one OS thread).
	Workers int

	// Seed derives the fabric shards' RNG substreams.
	Seed uint64
}

// ShardedReport is a partitioned run's outcome: the ordinary study report
// plus the conservative protocol's counters.
type ShardedReport struct {
	*Report

	// Fabric holds the sync-round, mail, and horizon-stall counters for the
	// run; zero-valued on the serial fallback path.
	Fabric sim.FabricStats
}

// partitionIONodes builds the round-robin node→shard assignment and the
// server shards themselves, named after the owning fabric cell. IOShards is
// clamped to the node count so every shard owns at least one node.
func partitionIONodes(fab *sim.Fabric, prefix string, ioNodes, ioShards int, seed uint64) ([]*sim.Shard, []int) {
	k := ioShards
	if k > ioNodes {
		k = ioNodes
	}
	srv := make([]*sim.Shard, k)
	for g := range srv {
		srv[g] = fab.AddShard(fmt.Sprintf("%sio%d", prefix, g), seed)
	}
	assign := make([]int, ioNodes)
	for i := range assign {
		assign[i] = i % k
	}
	return srv, assign
}

// RunSharded executes one study with its machine partitioned across the
// fabric. IOShards <= 0 falls back to the serial Run. Results are
// byte-identical at every Workers value for a fixed IOShards.
func RunSharded(s Study, opts ShardedOptions) (*ShardedReport, error) {
	r, _, err := runSharded(s, opts)
	return r, err
}

// runSharded is RunSharded exposing the runtime, which the worker-count
// determinism oracle fingerprints directly. rt is nil on the serial fallback.
func runSharded(s Study, opts ShardedOptions) (*ShardedReport, *runtime, error) {
	if opts.IOShards <= 0 {
		r, err := Run(s)
		if err != nil {
			return nil, nil, err
		}
		return &ShardedReport{Report: r}, nil, nil
	}

	fab := sim.NewFabric(opts.Workers)
	fe := fab.AddShard("frontend", opts.Seed)
	s, rt, err := prepare(s, placement{shard: fe, ioShards: opts.IOShards, seed: opts.Seed}, nil)
	if err != nil {
		return nil, nil, err
	}
	defer rt.retire()
	inj, err := rt.inject(s, faultEvents(s))
	if err != nil {
		return nil, nil, err
	}

	if err := rt.app.Launch(rt.m, rt.fs); err != nil {
		return nil, nil, fmt.Errorf("%s: launch: %w", rt.app.Name(), err)
	}
	runErr := fab.Run()
	if err := jobErr(s, rt, inj); err != nil {
		return nil, nil, err
	}
	if runErr != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.App, runErr)
	}
	return &ShardedReport{Report: finishReport(s, rt, inj), Fabric: fab.Stats()}, rt, nil
}
