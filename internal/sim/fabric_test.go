package sim

import (
	"fmt"
	"strings"
	"testing"
)

// fabricWorkload builds a K-shard ring with real cross-shard traffic and
// returns the merged execution trace: every shard runs several processes that
// interleave RNG-jittered local sleeps with mail to the next shard, and a
// fraction of deliveries hop one shard further, so nested sends, tie-breaks,
// and the horizon protocol are all exercised. The trace is a pure function of
// (shards, seed) — worker count must not leak into it.
func fabricWorkload(t testing.TB, shards, workers int, seed uint64) string {
	const (
		procs     = 6
		rounds    = 40
		lookahead = 5 * Microsecond
	)
	f := NewFabric(workers)
	sh := make([]*Shard, shards)
	logs := make([][]string, shards)
	for i := range sh {
		sh[i] = f.AddShard(fmt.Sprintf("shard%d", i), seed)
	}
	for i := range sh {
		f.Connect(sh[i], sh[(i+1)%shards], lookahead)
	}
	for i := range sh {
		i := i
		s := sh[i]
		e := s.Engine()
		rng := s.RNG()
		for j := 0; j < procs; j++ {
			j := j
			e.Spawn(fmt.Sprintf("worker%d", j), func(p *Process) {
				for r := 0; r < rounds; r++ {
					p.Sleep(rng.Uniform(Microsecond, 50*Microsecond))
					logs[i] = append(logs[i], fmt.Sprintf("s%d w%d r%d t=%d", i, j, r, p.Now()))
					dst := sh[(i+1)%shards]
					delay := lookahead + Time(rng.Intn(30))*Microsecond
					hop := rng.Intn(4) == 0
					msg := fmt.Sprintf("mail s%d->s%d w%d r%d", i, dst.idx, j, r)
					s.Send(p, dst, delay, "mail", func(mp *Process) {
						logs[dst.idx] = append(logs[dst.idx], fmt.Sprintf("%s t=%d", msg, mp.Now()))
						if hop {
							next := sh[(dst.idx+1)%shards]
							dst.Send(mp, next, lookahead, "hop", func(hp *Process) {
								logs[next.idx] = append(logs[next.idx], fmt.Sprintf("%s hop t=%d", msg, hp.Now()))
							})
						}
					})
				}
			})
		}
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := range logs {
		for _, l := range logs[i] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFabricByteIdenticalAcrossWorkerCounts is the sim-layer determinism
// oracle: the same sharded workload must produce an identical merged trace at
// every worker count, with workers=1 as the serial reference.
func TestFabricByteIdenticalAcrossWorkerCounts(t *testing.T) {
	const shards, seed = 4, 1234
	ref := fabricWorkload(t, shards, 1, seed)
	if !strings.Contains(ref, "mail s0->s1") || !strings.Contains(ref, "hop t=") {
		t.Fatalf("workload generated no cross-shard traffic:\n%.400s", ref)
	}
	for _, workers := range []int{2, 4, 8} {
		got := fabricWorkload(t, shards, workers, seed)
		if got != ref {
			t.Fatalf("trace at workers=%d differs from serial reference", workers)
		}
	}
}

// TestFabricHorizonBoundary guards the exclusive window edge: mail sent with
// delay exactly equal to the edge lookahead — timestamped precisely at the
// receiver's horizon — must still be delivered before it is due.
func TestFabricHorizonBoundary(t *testing.T) {
	const lookahead = 3 * Microsecond
	f := NewFabric(2)
	a := f.AddShard("a", 1)
	b := f.AddShard("b", 1)
	f.Connect(a, b, lookahead)
	var got []Time
	a.Engine().Spawn("sender", func(p *Process) {
		for r := 0; r < 10; r++ {
			p.Sleep(Microsecond)
			a.Send(p, b, lookahead, "edge", func(mp *Process) {
				got = append(got, mp.Now())
			})
		}
	})
	// Keep b's clock moving so its windows actually advance.
	b.Engine().Spawn("ticker", func(p *Process) {
		for r := 0; r < 20; r++ {
			p.Sleep(Microsecond)
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d of 10 horizon-edge messages", len(got))
	}
	for i, at := range got {
		want := Time(i+1)*Microsecond + lookahead
		if at != want {
			t.Fatalf("message %d ran at %v, want %v", i, at, want)
		}
	}
}

// TestFabricChainThroughQuiescentShard guards the send-bound relaxation: in
// a chain a->b->c where b has nothing queued, c's horizon must still account
// for mail a sends to b that b forwards to c. Bounding c by b's own (empty)
// queue would let c run past the forwarded mail's timestamp.
func TestFabricChainThroughQuiescentShard(t *testing.T) {
	const lookahead = 4 * Microsecond
	for _, workers := range []int{1, 2} {
		f := NewFabric(workers)
		a, b, c := f.AddShard("a", 1), f.AddShard("b", 1), f.AddShard("c", 1)
		f.Connect(a, b, lookahead)
		f.Connect(b, c, lookahead)
		var log []string
		a.Engine().Spawn("sender", func(p *Process) {
			p.Sleep(Microsecond)
			a.Send(p, b, lookahead, "first", func(bp *Process) {
				b.Send(bp, c, lookahead, "forward", func(cp *Process) {
					log = append(log, fmt.Sprintf("forward@%d", cp.Now()))
				})
			})
		})
		c.Engine().Spawn("ticker", func(p *Process) {
			for r := 0; r < 20; r++ {
				p.Sleep(Microsecond)
			}
			log = append(log, fmt.Sprintf("ticker@%d", p.Now()))
		})
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("forward@%d ticker@%d", Microsecond+2*lookahead, 20*Microsecond)
		if got := strings.Join(log, " "); got != want {
			t.Fatalf("workers=%d: got %q, want %q", workers, got, want)
		}
	}
}

// TestFabricDeadlock verifies the global deadlock determination: a process
// parked forever with no mail in flight anywhere must be reported (by the
// fabric — the shard engine itself defers the verdict).
func TestFabricDeadlock(t *testing.T) {
	f := NewFabric(2)
	a := f.AddShard("a", 1)
	b := f.AddShard("b", 1)
	f.Connect(a, b, Microsecond)
	b.Engine().Spawn("stuck", func(p *Process) {
		p.Park("waiting for mail that never comes")
	})
	err := f.Run()
	if err == nil {
		t.Fatal("expected a fabric deadlock error")
	}
	if !strings.Contains(err.Error(), "fabric deadlock") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error missing detail: %v", err)
	}
}

// TestFabricStoppedShard verifies a stopped engine is treated as quiescent:
// the fabric terminates even though the shard still has queued events and
// living processes, mirroring the serial engine's Stop semantics.
func TestFabricStoppedShard(t *testing.T) {
	f := NewFabric(2)
	a := f.AddShard("a", 1)
	b := f.AddShard("b", 1)
	f.Connect(a, b, Microsecond)
	a.Engine().Spawn("halter", func(p *Process) {
		p.Sleep(5 * Microsecond)
		p.Engine().Stop()
		p.Park("abandoned by Stop")
	})
	b.Engine().Spawn("worker", func(p *Process) {
		p.Sleep(10 * Microsecond)
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Engine().Stopped() {
		t.Fatal("shard a should be stopped")
	}
	if got := b.Engine().Now(); got != 10*Microsecond {
		t.Fatalf("shard b halted at %v, want 10µs", got)
	}
}

// TestFabricSendValidation pins the misuse panics: sending without an edge
// and sending below the edge lookahead both indicate a broken partitioning
// and must fail loudly.
func TestFabricSendValidation(t *testing.T) {
	mustPanic := func(name string, build func(f *Fabric, a, b *Shard, p *Process)) {
		t.Run(name, func(t *testing.T) {
			f := NewFabric(1)
			a := f.AddShard("a", 1)
			b := f.AddShard("b", 1)
			f.Connect(a, b, 2*Microsecond)
			a.Engine().Spawn("bad", func(p *Process) {
				defer func() {
					if recover() == nil {
						t.Error("expected a panic")
					}
					p.Engine().Stop()
				}()
				build(f, a, b, p)
			})
			_ = f.Run()
		})
	}
	mustPanic("no-edge", func(f *Fabric, a, b *Shard, p *Process) {
		b.Send(p, a, 2*Microsecond, "x", func(*Process) {}) // b->a never connected (and wrong engine)
	})
	mustPanic("below-lookahead", func(f *Fabric, a, b *Shard, p *Process) {
		a.Send(p, b, Microsecond, "x", func(*Process) {})
	})
}

// TestPartitionProperties checks the shard-partition helper's contract
// directly (the fuzz target widens the input space).
func TestPartitionProperties(t *testing.T) {
	for _, tc := range []struct{ n, groups int }{
		{0, 1}, {1, 1}, {7, 3}, {100, 8}, {1000, 7}, {16, 16}, {5, 8},
	} {
		a := Partition(tc.n, tc.groups, 42)
		if len(a) != tc.n {
			t.Fatalf("Partition(%d,%d): got %d assignments", tc.n, tc.groups, len(a))
		}
		counts := make([]int, tc.groups)
		for i, g := range a {
			if g < 0 || g >= tc.groups {
				t.Fatalf("Partition(%d,%d): item %d assigned to shard %d", tc.n, tc.groups, i, g)
			}
			counts[g]++
		}
		min, max := tc.n, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if tc.n >= tc.groups && max-min > 1 {
			t.Fatalf("Partition(%d,%d): unbalanced shard sizes %v", tc.n, tc.groups, counts)
		}
		b := Partition(tc.n, tc.groups, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Partition(%d,%d) not deterministic at item %d", tc.n, tc.groups, i)
			}
		}
	}
}

// FuzzShardPartition fuzzes the partition assignment: every item must map to
// exactly one in-range shard, sizes must stay balanced, and the mapping must
// be a pure function of (n, groups, seed).
func FuzzShardPartition(f *testing.F) {
	f.Add(100, 8, uint64(42))
	f.Add(0, 1, uint64(0))
	f.Add(1000, 3, uint64(7))
	f.Add(17, 17, uint64(99))
	f.Add(100000, 64, uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, n, groups int, seed uint64) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 17
		if groups <= 0 {
			groups = 1
		}
		groups = 1 + (groups-1)%256
		a := Partition(n, groups, seed)
		if len(a) != n {
			t.Fatalf("got %d assignments for n=%d", len(a), n)
		}
		counts := make([]int, groups)
		for i, g := range a {
			if g < 0 || g >= groups {
				t.Fatalf("item %d assigned to out-of-range shard %d (groups=%d)", i, g, groups)
			}
			counts[g]++
		}
		min, max := n, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if n >= groups && max-min > 1 {
			t.Fatalf("unbalanced partition: min %d max %d (n=%d groups=%d)", min, max, n, groups)
		}
		b := Partition(n, groups, seed)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("not deterministic at item %d", i)
			}
		}
	})
}
