package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Fabric coordinates a set of independently-clocked shard engines with the
// classic conservative-parallel bounded-horizon protocol: between global
// synchronization points each shard executes its own event queue up to a
// horizon no cross-shard message can penetrate, so shards run concurrently on
// OS threads while the merged execution remains deterministic.
//
// Topology is declared up front: Connect(src, dst, lookahead) states that src
// may send mail to dst, and that any mail sent while src's clock reads t
// arrives no earlier than t+lookahead. The lookahead is the physical link
// latency of the modeled system (for the mesh, software latency plus hop
// delay — see mesh.Lookahead), and it is what makes conservative execution
// possible: a shard can safely run to
//
//	horizon(X) = min over in-edges (src, L) of nextAt(src) + L
//
// because no connected shard, executing no earlier than its own next event,
// can produce mail for X before that bound. Shards with no in-edges have an
// infinite horizon and free-run to completion. A quiescent source is not
// silent forever: mail can wake it and it can forward. The reduction
// therefore relaxes a send-time lower bound B over the whole graph (B(i) =
// min(nextAt(i), min over in-edges B(src)+L), to fixpoint) and uses B(src)+L
// per in-edge as the horizon. Lookaheads are strictly positive, so the shard
// holding the globally minimal next event is always runnable and the
// protocol cannot stall.
//
// Windows are exclusive at the top: a shard runs events with timestamps
// strictly below its horizon, so mail timestamped exactly at the horizon is
// delivered before it could ever be due. Mail is buffered in per-sender
// outboxes during a window (no cross-thread mutation), moved to the
// destination's inbox at the synchronization point, and delivered in
// (time, sender, sender-sequence) order — a total order independent of how
// the OS interleaved the window, which is what makes results byte-identical
// at any worker count.
type Fabric struct {
	shards  []*Shard
	workers int

	windows int64
	mail    int64
}

// Shard is one independently-clocked partition of the simulation: its own
// engine, its own RNG substream, and mailboxes to the shards it is connected
// to.
type Shard struct {
	fab  *Fabric
	idx  int
	name string
	eng  *Engine
	rng  *RNG

	inEdges []inEdge
	outL    []Time   // lookahead to each destination shard; 0 = not connected
	outbox  [][]mail // per-destination mail buffered during the current window
	inbox   []mail
	sendSeq uint64
}

type inEdge struct {
	src       int
	lookahead Time
}

// mail is a cross-shard message: a closure to run in a fresh process on the
// destination engine at an absolute simulated time. The (at, src, seq)
// triple is its delivery sort key.
type mail struct {
	at   Time
	src  int
	seq  uint64
	name string
	fn   func(p *Process)
}

// NewFabric creates an empty fabric. workers bounds how many shards execute
// concurrently during a window; 0 means GOMAXPROCS. workers=1 is the serial
// oracle: the very same protocol, windows, and delivery order on one thread.
func NewFabric(workers int) *Fabric {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Fabric{workers: workers}
}

// AddShard creates a shard with its own engine and an RNG substream derived
// from seed and the shard's index (splitmix64 streams, so substreams are
// independent and stable under shard-count changes).
func (f *Fabric) AddShard(name string, seed uint64) *Shard {
	e := NewEngine()
	e.SetExternal()
	s := &Shard{
		fab:  f,
		idx:  len(f.shards),
		name: name,
		eng:  e,
		rng:  NewRNG(seed).Split(),
	}
	f.shards = append(f.shards, s)
	return s
}

// Engine returns the shard's engine. Processes, resources, and all other sim
// primitives are created against it exactly as against a standalone engine.
func (s *Shard) Engine() *Engine { return s.eng }

// RNG returns the shard's private random stream.
func (s *Shard) RNG() *RNG { return s.rng }

// Name returns the shard name given at AddShard.
func (s *Shard) Name() string { return s.name }

// Connect declares that src may send mail to dst with the given minimum
// latency (lookahead). The lookahead must be strictly positive — it is the
// protocol's progress guarantee. Connecting the same pair twice keeps the
// smaller lookahead.
func (f *Fabric) Connect(src, dst *Shard, lookahead Time) {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: fabric edge %s->%s lookahead %v must be positive", src.name, dst.name, lookahead))
	}
	if src == dst {
		panic(fmt.Sprintf("sim: fabric self-edge on %s (local sends need no edge)", src.name))
	}
	for i := range dst.inEdges {
		if dst.inEdges[i].src == src.idx {
			if lookahead < dst.inEdges[i].lookahead {
				dst.inEdges[i].lookahead = lookahead
				src.outL[dst.idx] = lookahead
			}
			return
		}
	}
	dst.inEdges = append(dst.inEdges, inEdge{src: src.idx, lookahead: lookahead})
	for len(src.outL) <= dst.idx {
		src.outL = append(src.outL, 0)
		src.outbox = append(src.outbox, nil)
	}
	src.outL[dst.idx] = lookahead
}

// Send queues mail from the running process p (which must belong to this
// shard) to shard dst: fn will run in a fresh process on dst's engine at
// p.Now()+delay. The shards must be connected and delay must be at least the
// edge's lookahead — sending faster than the declared link latency would
// break the conservative horizon.
func (s *Shard) Send(p *Process, dst *Shard, delay Time, name string, fn func(p *Process)) {
	if p.eng != s.eng {
		panic(fmt.Sprintf("sim: Send on shard %s from a process of another engine", s.name))
	}
	if dst.idx >= len(s.outL) || s.outL[dst.idx] == 0 {
		panic(fmt.Sprintf("sim: Send %s->%s without a Connect edge", s.name, dst.name))
	}
	if delay < s.outL[dst.idx] {
		panic(fmt.Sprintf("sim: Send %s->%s delay %v below edge lookahead %v", s.name, dst.name, delay, s.outL[dst.idx]))
	}
	s.sendSeq++
	s.outbox[dst.idx] = append(s.outbox[dst.idx], mail{
		at:   p.Now() + delay,
		src:  s.idx,
		seq:  s.sendSeq,
		name: name,
		fn:   fn,
	})
}

// nextAt is the earliest time the shard could still execute an event — the
// lower bound other shards' horizons are derived from. ok is false when the
// shard is quiescent (treated as +infinity by the reduction: a stopped or
// drained shard can send no more mail).
func (s *Shard) nextAt() (Time, bool) {
	if s.eng.Stopped() {
		return 0, false
	}
	return s.eng.NextEventAt()
}

// deliver sorts the inbox into the global (time, sender, sender-sequence)
// order and spawns each mail closure on the shard's engine. Spawn order
// assigns engine sequence numbers, so delivery order — and therefore every
// downstream tie-break — is a pure function of the mail set, not of OS
// scheduling.
func (s *Shard) deliver() {
	if len(s.inbox) == 0 {
		return
	}
	sort.Slice(s.inbox, func(i, j int) bool {
		a, b := s.inbox[i], s.inbox[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	now := s.eng.Now()
	for _, m := range s.inbox {
		if m.at < now {
			// Cannot happen under the protocol (the horizon excludes it);
			// check anyway so a lookahead bug fails loudly, not silently.
			panic(fmt.Sprintf("sim: shard %s received mail for the past (%v < %v)", s.name, m.at, now))
		}
		s.eng.SpawnAt(m.name, m.at-now, m.fn)
	}
	s.fab.mail += int64(len(s.inbox))
	s.inbox = s.inbox[:0]
}

// Run executes the fabric to completion: windows of concurrent shard
// execution separated by global horizon reductions and mail exchanges. It
// returns the first (lowest shard index) error, or a global deadlock error
// when processes remain parked with no mail in flight anywhere.
func (f *Fabric) Run() error {
	n := len(f.shards)
	nexts := make([]Time, n)
	haveNext := make([]bool, n)
	bounds := make([]Time, n) // B: lower bound on each shard's earliest future send
	haveB := make([]bool, n)  // false = unbounded (can never send again)
	limits := make([]Time, n)
	runnable := make([]bool, n)
	errs := make([]error, n)
	sem := make(chan struct{}, f.workers)
	done := make(chan int, n)

	for {
		// Synchronization point: deliver all in-flight mail, then take the
		// global snapshot of every shard's next event time.
		for _, s := range f.shards {
			s.deliver()
		}
		active := false
		for i, s := range f.shards {
			nexts[i], haveNext[i] = s.nextAt()
			active = active || haveNext[i]
		}
		if !active {
			return f.deadlockCheck()
		}

		// Send-bound relaxation: B(i) starts at the shard's own next event
		// time (unbounded when quiescent — a shard with nothing queued only
		// acts again after mail wakes it) and is relaxed over in-edges to
		// B(i) = min(B(i), B(src)+L) until fixpoint. The relaxed bound
		// accounts for wake-and-forward chains through quiescent shards,
		// which nextAt alone misses. Edge weights are positive, so
		// Bellman-Ford converges within n passes.
		copy(bounds, nexts)
		copy(haveB, haveNext)
		for pass := 0; pass < n; pass++ {
			changed := false
			for i, s := range f.shards {
				for _, e := range s.inEdges {
					if !haveB[e.src] {
						continue
					}
					h := bounds[e.src] + e.lookahead
					if !haveB[i] || h < bounds[i] {
						bounds[i], haveB[i] = h, true
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}

		// Horizon reduction: each shard may run strictly below the minimum
		// over its in-edges of the source's send bound plus the edge
		// lookahead. No in-edges (or all sources silenced) means no bound.
		launched := 0
		for i, s := range f.shards {
			runnable[i] = false
			if !haveNext[i] {
				continue
			}
			horizon, bounded := Time(0), false
			for _, e := range s.inEdges {
				if !haveB[e.src] {
					continue // source can never send again, bounds nothing
				}
				h := bounds[e.src] + e.lookahead
				if !bounded || h < horizon {
					horizon, bounded = h, true
				}
			}
			if bounded {
				if nexts[i] >= horizon {
					continue // nothing due inside this shard's window
				}
				limits[i] = horizon - 1 // exclusive: mail at the horizon is safe
			} else {
				limits[i] = -1 // free-run
			}
			runnable[i] = true
			launched++
		}

		// Execute the window. With one worker, run the shards inline in
		// index order — no goroutines, no semaphore — which keeps the
		// serial-oracle configuration within a few percent of the plain
		// engine. Otherwise each runnable shard gets its own goroutine,
		// concurrency bounded by the worker semaphore. Shards only touch
		// their own engine and their own outboxes, so the window is
		// data-race-free by construction.
		f.windows++
		if f.workers == 1 {
			for i, s := range f.shards {
				if runnable[i] {
					errs[i] = s.eng.RunUntil(limits[i])
				}
			}
		} else {
			for i, s := range f.shards {
				if !runnable[i] {
					continue
				}
				go func(i int, s *Shard) {
					sem <- struct{}{}
					errs[i] = s.eng.RunUntil(limits[i])
					<-sem
					done <- i
				}(i, s)
			}
			for k := 0; k < launched; k++ {
				<-done
			}
		}
		for i := 0; i < n; i++ {
			if runnable[i] && errs[i] != nil {
				return fmt.Errorf("fabric shard %s: %w", f.shards[i].name, errs[i])
			}
		}

		f.exchange()
	}
}

// exchange moves every outbox into its destination's inbox. Single-threaded,
// so append order (by source shard index) is fixed — and irrelevant anyway,
// since deliver sorts.
func (f *Fabric) exchange() {
	for _, s := range f.shards {
		for d := range s.outbox {
			if len(s.outbox[d]) == 0 {
				continue
			}
			f.shards[d].inbox = append(f.shards[d].inbox, s.outbox[d]...)
			s.outbox[d] = s.outbox[d][:0]
		}
	}
}

// deadlockCheck runs when every shard is quiescent: success if no live
// processes remain (or their engines were stopped), a global deadlock
// otherwise.
func (f *Fabric) deadlockCheck() error {
	var stuck []string
	for _, s := range f.shards {
		if s.eng.Stopped() {
			continue
		}
		if s.eng.Living() > 0 {
			stuck = append(stuck, fmt.Sprintf("%s: %v", s.name, s.eng.deadlockError()))
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	return fmt.Errorf("sim: fabric deadlock, no mail in flight and %d shards blocked:\n  %s",
		len(stuck), strings.Join(stuck, "\n  "))
}

// FabricStats summarizes a completed run.
type FabricStats struct {
	Shards  int
	Workers int
	Windows int64 // synchronization rounds executed
	Mail    int64 // cross-shard messages delivered
}

// Stats reports protocol counters for the run so far.
func (f *Fabric) Stats() FabricStats {
	return FabricStats{
		Shards:  len(f.shards),
		Workers: f.workers,
		Windows: f.windows,
		Mail:    f.mail,
	}
}

// Partition deterministically assigns n items (nodes, cells, mesh regions)
// to groups shards: a seeded Fisher-Yates shuffle dealt round-robin, so
// every item maps to exactly one shard, shard sizes differ by at most one,
// and the mapping is a pure function of (n, groups, seed).
func Partition(n, groups int, seed uint64) []int {
	if n < 0 {
		panic("sim: Partition with negative n")
	}
	if groups < 1 {
		panic("sim: Partition with groups < 1")
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	assign := make([]int, n)
	for pos, item := range order {
		assign[item] = pos % groups
	}
	return assign
}
