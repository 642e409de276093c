package ppfs

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/iotrace"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

type rig struct {
	eng  *sim.Engine
	fs   *FileSystem
	app  *recorder // application-visible events
	phys *recorder // physical events at the PFS layer
}

type recorder struct {
	events []iotrace.Event
}

func (r *recorder) Record(e iotrace.Event) { r.events = append(r.events, e) }

func (r *recorder) ops(op iotrace.Op) []iotrace.Event {
	var out []iotrace.Event
	for _, e := range r.events {
		if e.Op == op {
			out = append(out, e)
		}
	}
	return out
}

func newRig(t *testing.T, pol Policy) *rig {
	t.Helper()
	eng := sim.NewEngine()
	m := mesh.New(mesh.Config{
		Cols: 6, Rows: 6,
		SWLatency: 100 * sim.Microsecond, HopLatency: 1 * sim.Microsecond,
		BWBytesPerS: 10e6,
	})
	cfg := pfs.DefaultConfig()
	cfg.IONodes = 4
	under, err := pfs.New(eng, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phys := &recorder{}
	under.SetRecorder(phys)
	fs, err := New(eng, under, pol)
	if err != nil {
		t.Fatal(err)
	}
	app := &recorder{}
	fs.SetRecorder(app)
	return &rig{eng: eng, fs: fs, app: app, phys: phys}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Process)) {
	t.Helper()
	r.eng.Spawn("test", fn)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBehindCompletesFast(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	var dur sim.Time
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		if _, err := h.Write(p, 2048); err != nil {
			t.Fatal(err)
		}
		dur = p.Now() - t0
		if err := h.Close(p); err != nil {
			t.Fatal(err)
		}
	})
	// A buffered 2 KB write costs overhead + memcpy, well under a disk
	// positioning time.
	if dur > 2*sim.Millisecond {
		t.Fatalf("buffered write took %v", dur)
	}
	st := r.fs.Stats()
	if st.BufferedWrites != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The data physically landed by close.
	info, _ := r.fs.Stat("f")
	if info.Size != 2048 {
		t.Fatalf("physical size %d", info.Size)
	}
}

func TestAggregationCoalescesExtents(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		// 64 sequential 2 KB writes = 128 KB contiguous.
		for i := 0; i < 64; i++ {
			if _, err := h.Write(p, 2048); err != nil {
				t.Fatal(err)
			}
		}
		h.Close(p)
	})
	st := r.fs.Stats()
	if st.BufferedWrites != 64 {
		t.Fatalf("buffered %d", st.BufferedWrites)
	}
	// 128 KB in few large extents, not 64 small ones.
	if st.Flushes > 4 {
		t.Fatalf("%d physical flushes for 64 coalescible writes", st.Flushes)
	}
	if st.MeanFlushExtent() < 32*1024 {
		t.Fatalf("mean flush extent %d", st.MeanFlushExtent())
	}
	// Physical trace agrees.
	for _, e := range r.phys.ops(iotrace.OpWrite) {
		if e.Bytes < 32*1024 {
			t.Fatalf("small physical write %d bytes survived aggregation", e.Bytes)
		}
	}
}

func TestNoAggregationKeepsExtentsSeparate(t *testing.T) {
	pol := DefaultPolicy()
	pol.Aggregation = false
	r := newRig(t, pol)
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		for i := 0; i < 8; i++ {
			h.Write(p, 2048)
		}
		h.Close(p)
	})
	if st := r.fs.Stats(); st.Flushes != 8 {
		t.Fatalf("flushes %d, want 8 without aggregation", st.Flushes)
	}
}

func TestReadDrainsBufferedWrites(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 4096)
		h.Seek(p, 0, pfs.SeekStart)
		if n, err := h.Read(p, 4096); err != nil || n != 4096 {
			t.Fatalf("read-back: n=%d err=%v", n, err)
		}
	})
	if st := r.fs.Stats(); st.Drains == 0 {
		t.Fatal("read did not drain")
	}
}

func TestDirectWritesBypassBuffer(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		if _, err := h.Write(p, 256*1024); err != nil { // >= stripe: direct
			t.Fatal(err)
		}
	})
	st := r.fs.Stats()
	if st.DirectWrites != 1 || st.BufferedWrites != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheHitOnRereadAndInvalidation(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		if _, err := r.fs.Preload("f", 1<<20); err != nil {
			t.Fatal(err)
		}
		h, err := r.fs.Open(p, 0, "f", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		h.Read(p, 8192)
		cold := p.Now() - t0

		h.Seek(p, 0, pfs.SeekStart)
		t1 := p.Now()
		h.Read(p, 8192)
		warm := p.Now() - t1
		if warm*5 > cold {
			t.Fatalf("warm read %v not much faster than cold %v", warm, cold)
		}

		// A write to the same range invalidates; the next read misses.
		missesBefore := r.fs.Stats().CacheMisses
		h.Seek(p, 0, pfs.SeekStart)
		h.Write(p, 8192)
		h.Seek(p, 0, pfs.SeekStart)
		h.Read(p, 8192)
		if r.fs.Stats().CacheMisses == missesBefore {
			t.Fatal("write did not invalidate cached blocks")
		}
	})
}

func TestPrefetchOverlapsSequentialReads(t *testing.T) {
	pol := DefaultPolicy()
	pol.WriteBehind = false
	pol.Aggregation = false
	r := newRig(t, pol)
	r.run(t, func(p *sim.Process) {
		r.fs.Preload("f", 2<<20)
		h, _ := r.fs.Open(p, 0, "f", iotrace.ModeUnix)
		// Sequential stream of block-sized reads with compute between: the
		// prefetcher should hide most fetch latency after warmup.
		for i := 0; i < 16; i++ {
			if _, err := h.Read(p, 64*1024); err != nil {
				t.Fatal(err)
			}
			p.Sleep(100 * sim.Millisecond) // compute to overlap with
		}
	})
	st := r.fs.Stats()
	if st.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if st.PrefetchHits == 0 && st.CacheMisses >= 16 {
		t.Fatalf("prefetching ineffective: %+v", st)
	}
}

func TestLargeReadsBypassCache(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		r.fs.Preload("f", 4<<20)
		h, _ := r.fs.Open(p, 0, "f", iotrace.ModeUnix)
		if _, err := h.Read(p, 1<<20); err != nil { // >= BypassBytes
			t.Fatal(err)
		}
	})
	if got := r.fs.Stats().CacheMisses; got != 0 {
		t.Fatalf("bypass read caused %d block fetches", got)
	}
}

func TestEOFSemanticsMatchPFS(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 1000)
		h.Seek(p, 0, pfs.SeekStart)
		if n, err := h.Read(p, 5000); err != nil || n != 1000 {
			t.Fatalf("short read: n=%d err=%v", n, err)
		}
		if n, err := h.Read(p, 10); !errors.Is(err, pfs.ErrEOF) || n != 0 {
			t.Fatalf("eof: n=%d err=%v", n, err)
		}
	})
}

func TestSeekIsClientLocal(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	var dur sim.Time
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 2048)
		t0 := p.Now()
		if _, err := h.Seek(p, 1<<20, pfs.SeekStart); err != nil {
			t.Fatal(err)
		}
		dur = p.Now() - t0
	})
	if dur > 1*sim.Millisecond {
		t.Fatalf("PPFS seek took %v (should be client-local)", dur)
	}
	// Seeks never reach the physical layer in cached mode.
	if got := len(r.phys.ops(iotrace.OpSeek)); got != 0 {
		t.Fatalf("%d physical seeks", got)
	}
}

func TestLsizeIncludesBufferedBytes(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 3000)
		size, err := h.Lsize(p)
		if err != nil || size != 3000 {
			t.Fatalf("lsize %d %v", size, err)
		}
	})
}

func TestAsyncReadThroughPolicyLayer(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		r.fs.Preload("f", 8<<20)
		h, _ := r.fs.Open(p, 0, "f", iotrace.ModeUnix)
		ar, err := h.ReadAsync(p, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(5 * sim.Second)
		if n, err := ar.Wait(p); err != nil || n != 2<<20 {
			t.Fatalf("wait: n=%d err=%v", n, err)
		}
		if !ar.Done() || ar.Bytes() != 2<<20 {
			t.Fatal("async state wrong")
		}
	})
	if got := len(r.app.ops(iotrace.OpAsyncRead)); got != 1 {
		t.Fatalf("app async events %d", got)
	}
	if got := len(r.app.ops(iotrace.OpIOWait)); got != 1 {
		t.Fatalf("app iowait events %d", got)
	}
}

func TestDelegatedModesPassThrough(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		h, err := r.fs.Create(p, 0, "rec", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(p, 4096)
		h.Close(p)
		hr, err := r.fs.OpenRecord(p, 0, "rec", 1024)
		if err != nil {
			t.Fatal(err)
		}
		if hr.Mode() != iotrace.ModeRecord {
			t.Fatalf("mode %v", hr.Mode())
		}
		if n, err := hr.Read(p, 1024); err != nil || n != 1024 {
			t.Fatalf("record read: n=%d err=%v", n, err)
		}
		if _, err := hr.Read(p, 999); !errors.Is(err, pfs.ErrRecordLength) {
			t.Fatalf("record length not enforced through ppfs: %v", err)
		}
	})
}

func TestSetIOModeDrainsAndSwitches(t *testing.T) {
	r := newRig(t, DefaultPolicy())
	r.run(t, func(p *sim.Process) {
		h, _ := r.fs.Create(p, 0, "f", iotrace.ModeUnix)
		h.Write(p, 2048) // buffered
		if err := h.SetIOMode(p, iotrace.ModeRecord, 2048); err != nil {
			t.Fatal(err)
		}
		if n, err := h.Read(p, 2048); err != nil || n != 2048 {
			t.Fatalf("record read after switch: n=%d err=%v", n, err)
		}
	})
}

func TestSynchronizedSmallWritesMuchCheaperThanPFS(t *testing.T) {
	// The §5.2 mechanism in miniature: 8 nodes each write 2 KB to a shared
	// file at disjoint offsets simultaneously. On raw PFS the atomicity
	// token serializes positioning-dominated writes; on PPFS the writes
	// return at memcpy cost and flush as aggregated extents.
	elapsed := func(usePPFS bool) sim.Time {
		r := newRig(t, DefaultPolicy())
		var fsi workload.FS = workload.WrapPFS(r.fs.Under())
		if usePPFS {
			fsi = r.fs
		}
		// Application-visible completion: when the last writer finishes,
		// not when background flushers go idle.
		var end sim.Time
		r.eng.Spawn("setup", func(p *sim.Process) {
			h0, err := fsi.Create(p, 0, "shared", iotrace.ModeUnix)
			if err != nil {
				t.Fatal(err)
			}
			handles := []workload.Handle{h0}
			for node := 1; node < 8; node++ {
				h, err := fsi.Open(p, node, "shared", iotrace.ModeUnix)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			for node := 0; node < 8; node++ {
				node := node
				r.eng.Spawn(fmt.Sprintf("w%d", node), func(p *sim.Process) {
					for it := 0; it < 10; it++ {
						handles[node].Seek(p, int64(node*100_000+it*2048), pfs.SeekStart)
						handles[node].Write(p, 2048)
					}
					if p.Now() > end {
						end = p.Now()
					}
				})
			}
		})
		if err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	raw, layered := elapsed(false), elapsed(true)
	if layered*2 > raw {
		t.Fatalf("PPFS (%v) not clearly cheaper than PFS (%v)", layered, raw)
	}
}

func TestClassifierPatterns(t *testing.T) {
	c := NewClassifier()
	// Sequential stream.
	for i := int64(0); i < 10; i++ {
		c.Observe(1, 0, iotrace.OpRead, i*100, 100)
	}
	if got := c.Classify(1, 0); got.Pattern != PatternSequential {
		t.Fatalf("sequential classified as %v", got.Pattern)
	}
	// Strided stream: constant gap.
	for i := int64(0); i < 10; i++ {
		c.Observe(2, 0, iotrace.OpWrite, i*1000, 100)
	}
	if got := c.Classify(2, 0); got.Pattern != PatternStrided {
		t.Fatalf("strided classified as %v", got.Pattern)
	}
	// Random stream.
	offs := []int64{500, 12, 9000, 4, 777, 123456, 42, 8888}
	for _, o := range offs {
		c.Observe(3, 0, iotrace.OpRead, o, 10)
	}
	if got := c.Classify(3, 0); got.Pattern != PatternRandom {
		t.Fatalf("random classified as %v", got.Pattern)
	}
	// Too few accesses: unknown.
	c.Observe(4, 0, iotrace.OpRead, 0, 10)
	if got := c.Classify(4, 0); got.Pattern != PatternUnknown {
		t.Fatalf("short stream classified as %v", got.Pattern)
	}
	if got := c.Classify(99, 9); got.Pattern != PatternUnknown {
		t.Fatalf("unseen stream classified as %v", got.Pattern)
	}
	if c.Streams() != 4 {
		t.Fatalf("streams %d", c.Streams())
	}
}

func TestClassifierReadWriteMix(t *testing.T) {
	c := NewClassifier()
	for i := int64(0); i < 8; i++ {
		c.Observe(1, 0, iotrace.OpRead, i*100, 100)
	}
	for i := int64(8); i < 10; i++ {
		c.Observe(1, 0, iotrace.OpWrite, i*100, 100)
	}
	cl := c.Classify(1, 0)
	if cl.ReadFraction != 0.8 {
		t.Fatalf("read fraction %f", cl.ReadFraction)
	}
	if cl.MeanBytes != 100 || cl.Accesses != 10 {
		t.Fatalf("classification %+v", cl)
	}
}

func TestAdaptivePrefetchOnlyOnSequential(t *testing.T) {
	pol := DefaultPolicy()
	pol.Adaptive = true
	pol.WriteBehind = false
	pol.Aggregation = false
	r := newRig(t, pol)
	r.run(t, func(p *sim.Process) {
		r.fs.Preload("f", 8<<20)
		h, _ := r.fs.Open(p, 0, "f", iotrace.ModeUnix)
		rng := sim.NewRNG(1)
		// Random reads: classifier should suppress prefetch.
		for i := 0; i < 12; i++ {
			h.Seek(p, rng.Int63n(7<<20), pfs.SeekStart)
			h.Read(p, 4096)
		}
	})
	if got := r.fs.Stats().Prefetches; got != 0 {
		t.Fatalf("adaptive mode prefetched %d blocks on a random stream", got)
	}
}

func TestPolicyValidation(t *testing.T) {
	bad := []Policy{
		{Aggregation: true},                  // aggregation without write-behind
		{Prefetch: 2},                        // prefetch without cache
		{CacheBlocks: -1},                    // negative
		{CacheBlocks: 4, BlockSize: -1},      // negative block size
		{WriteBehind: true, Prefetch: -1},    // negative prefetch
		{FlushInterval: -1 * sim.Second},     // negative interval
		{FlushHighWater: -5, Prefetch: 0},    // negative high water
		{CacheBlocks: 1, BlockSize: -64},     // negative block size again
		{Aggregation: true, Prefetch: 1},     // two violations
		{Prefetch: 1, CacheBlocks: 0},        // explicit zero cache
		{WriteBehind: true, CacheBlocks: -3}, // negative cache
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d accepted: %+v", i, p)
		}
	}
	if err := DefaultPolicy().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
	if err := PassthroughPolicy().Validate(); err != nil {
		t.Errorf("passthrough policy invalid: %v", err)
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := newBlockCache(2)
	a := c.insert(blockKey{1, 0}, blockReady, nil)
	_ = a
	c.insert(blockKey{1, 1}, blockReady, nil)
	c.lookup(blockKey{1, 0}) // promote block 0
	c.insert(blockKey{1, 2}, blockReady, nil)
	if c.lookup(blockKey{1, 1}) != nil {
		t.Fatal("LRU victim survived")
	}
	if c.lookup(blockKey{1, 0}) == nil || c.lookup(blockKey{1, 2}) == nil {
		t.Fatal("wrong entries evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
}

func TestBlockCachePendingNotEvicted(t *testing.T) {
	c := newBlockCache(1)
	comp := sim.NewCompletion("x")
	c.insert(blockKey{1, 0}, blockPending, comp)
	c.insert(blockKey{1, 1}, blockReady, nil)
	if b := c.lookup(blockKey{1, 0}); b == nil || b.state != blockPending {
		t.Fatal("pending block evicted")
	}
}

func TestBlockCacheDrop(t *testing.T) {
	c := newBlockCache(4)
	c.insert(blockKey{1, 0}, blockReady, nil)
	c.drop(blockKey{1, 0})
	if c.lookup(blockKey{1, 0}) != nil {
		t.Fatal("dropped block still cached")
	}
	c.drop(blockKey{9, 9}) // no-op
}

func TestAggregationCombinesDisjointWritesIntoSweeps(t *testing.T) {
	// The actual §5.2 shape: many nodes write small records at *disjoint*
	// offsets of a shared file. Aggregation cannot merge them into one
	// extent, but it batches them into one scatter-gather sweep per I/O
	// node touched.
	r := newRig(t, DefaultPolicy())
	const writers = 8
	r.eng.Spawn("setup", func(p *sim.Process) {
		h0, err := r.fs.Create(p, 0, "shared", iotrace.ModeUnix)
		if err != nil {
			t.Fatal(err)
		}
		handles := []workload.Handle{h0}
		for node := 1; node < writers; node++ {
			h, err := r.fs.Open(p, node, "shared", iotrace.ModeUnix)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for node := 0; node < writers; node++ {
			node := node
			r.eng.Spawn(fmt.Sprintf("w%d", node), func(p *sim.Process) {
				// Disjoint regions, 256 KB apart (stripe = 64 KB).
				handles[node].Seek(p, int64(node)*256*1024, pfs.SeekStart)
				for i := 0; i < 4; i++ {
					if _, err := handles[node].Write(p, 2048); err != nil {
						t.Errorf("write: %v", err)
					}
				}
			})
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.fs.Stats()
	if st.BufferedWrites != 32 {
		t.Fatalf("buffered %d", st.BufferedWrites)
	}
	// 8 regions land on 8 distinct stripes/I/O nodes (4 I/O nodes in the
	// rig, 2 stripes each): expect sweeps well below 32.
	if st.Flushes >= 16 {
		t.Fatalf("%d sweeps for 32 disjoint writes", st.Flushes)
	}
	if st.FlushedBytes != 32*2048 {
		t.Fatalf("flushed %d bytes", st.FlushedBytes)
	}
	// Physical events reflect aggregated sweeps, not 2 KB requests.
	for _, e := range r.phys.ops(iotrace.OpWrite) {
		if e.Bytes < 4096 {
			t.Fatalf("physical write of %d bytes escaped aggregation", e.Bytes)
		}
	}
}

// Property: with aggregation, the extent list is always sorted,
// non-overlapping and non-adjacent, it covers exactly the union of the
// written ranges, and fb.bytes equals the length of that union. Writes land
// in a small address range, so overlapping and repeated writes are common.
func TestExtentMergeInvariantProperty(t *testing.T) {
	const span = 64
	prop := func(raw []uint16) bool {
		r := newRigQuiet()
		fb := r.fs.buffer("f")
		var written [2 * span]bool
		for _, v := range raw {
			off := int64(v % span)
			n := int64(v/span%span) + 1
			r.fs.addExtent(fb, off, n, 0)
			for b := off; b < off+n; b++ {
				written[b] = true
			}
		}
		var union int64
		for _, w := range written {
			if w {
				union++
			}
		}
		var covered [2 * span]bool
		for i, e := range fb.extents {
			if e.end <= e.start {
				return false
			}
			if i > 0 && e.start <= fb.extents[i-1].end {
				return false // overlap, adjacency or disorder
			}
			for b := e.start; b < e.end; b++ {
				covered[b] = true
			}
		}
		return covered == written && fb.bytes == union
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// newRigQuiet builds a ppfs instance without a testing.T (for property
// functions).
func newRigQuiet() *rig {
	eng := sim.NewEngine()
	m := mesh.New(mesh.Config{
		Cols: 6, Rows: 6,
		SWLatency: 100 * sim.Microsecond, HopLatency: 1 * sim.Microsecond,
		BWBytesPerS: 10e6,
	})
	cfg := pfs.DefaultConfig()
	cfg.IONodes = 4
	under, _ := pfs.New(eng, m, cfg)
	fs, _ := New(eng, under, DefaultPolicy())
	return &rig{eng: eng, fs: fs}
}
