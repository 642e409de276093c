package ppfs

import (
	"fmt"
	"sort"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FileSystem is a PPFS instance: policy state layered over a native PFS.
type FileSystem struct {
	eng   *sim.Engine
	under *pfs.FileSystem
	pol   Policy

	cache   *blockCache
	class   *Classifier
	buffers map[string]*fileBuffer

	rec   iotrace.Recorder
	phase string
	seq   int64

	stats Stats
}

// New layers a PPFS policy instance over a PFS.
func New(eng *sim.Engine, under *pfs.FileSystem, pol Policy) (*FileSystem, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	pol = pol.withDefaults(under.Config().StripeUnit)
	fs := &FileSystem{
		eng:     eng,
		under:   under,
		pol:     pol,
		class:   NewClassifier(),
		buffers: make(map[string]*fileBuffer),
		rec:     iotrace.Discard,
	}
	if pol.CacheBlocks > 0 {
		fs.cache = newBlockCache(pol.CacheBlocks)
	}
	return fs, nil
}

// Policy returns the effective (defaulted) policy.
func (fs *FileSystem) Policy() Policy { return fs.pol }

// Under exposes the physical file system (e.g. to attach a physical-level
// tracer).
func (fs *FileSystem) Under() *pfs.FileSystem { return fs.under }

// Stats returns policy-layer counters.
func (fs *FileSystem) Stats() Stats { return fs.stats }

// Classifier exposes the access-pattern classifier.
func (fs *FileSystem) Classifier() *Classifier { return fs.class }

// SetRecorder installs the application-level trace recorder.
func (fs *FileSystem) SetRecorder(r iotrace.Recorder) {
	if r == nil {
		r = iotrace.Discard
	}
	fs.rec = r
}

// SetPhase labels application-level and physical-level events.
func (fs *FileSystem) SetPhase(name string) {
	fs.phase = name
	fs.under.SetPhase(name)
}

// Phase returns the current phase label.
func (fs *FileSystem) Phase() string { return fs.phase }

// Preload implements workload.FS.
func (fs *FileSystem) Preload(name string, size int64) (pfs.FileInfo, error) {
	return fs.under.Preload(name, size)
}

// ReserveIDs implements workload.FS.
func (fs *FileSystem) ReserveIDs(n int) { fs.under.ReserveIDs(n) }

// Stat implements workload.FS.
func (fs *FileSystem) Stat(name string) (pfs.FileInfo, bool) { return fs.under.Stat(name) }

// record captures one application-visible operation.
func (fs *FileSystem) record(node int, op iotrace.Op, file iotrace.FileID,
	off, bytes int64, start sim.Time, mode iotrace.AccessMode) {
	fs.seq++
	fs.rec.Record(iotrace.Event{
		Seq: fs.seq, Node: node, Op: op, File: file,
		Offset: off, Bytes: bytes, Start: start, End: fs.eng.Now(),
		Mode: mode, Phase: fs.phase,
	})
}

// copyCost charges the client memory-copy time for n bytes.
func (fs *FileSystem) copyCost(p *sim.Process, n int64) {
	p.Sleep(sim.Time(float64(n) / fs.pol.CopyBytesPerS * float64(sim.Second)))
}

// Create implements workload.FS.
func (fs *FileSystem) Create(p *sim.Process, node int, name string, mode iotrace.AccessMode) (workload.Handle, error) {
	start := p.Now()
	uh, err := fs.under.Create(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	h := fs.newHandle(p, uh, node, name, mode, start)
	return h, nil
}

// Open implements workload.FS.
func (fs *FileSystem) Open(p *sim.Process, node int, name string, mode iotrace.AccessMode) (workload.Handle, error) {
	start := p.Now()
	uh, err := fs.under.Open(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	return fs.newHandle(p, uh, node, name, mode, start), nil
}

// OpenRecord implements workload.FS.
func (fs *FileSystem) OpenRecord(p *sim.Process, node int, name string, recordLen int64) (workload.Handle, error) {
	start := p.Now()
	uh, err := fs.under.OpenRecord(p, node, name, recordLen)
	if err != nil {
		return nil, err
	}
	return fs.newHandle(p, uh, node, name, iotrace.ModeRecord, start), nil
}

func (fs *FileSystem) newHandle(p *sim.Process, uh *pfs.Handle, node int, name string,
	mode iotrace.AccessMode, start sim.Time) *Handle {
	fb := fs.buffer(name)
	fb.openHandles++
	info, _ := fs.under.Stat(name)
	fs.record(node, iotrace.OpOpen, info.ID, 0, 0, start, mode)
	return &Handle{fs: fs, under: uh, node: node, name: name, file: info.ID, mode: mode}
}

// fileBuffer is the write-behind state for one file.
type fileBuffer struct {
	name        string
	extents     []extent
	bytes       int64
	flushing    bool
	timerArmed  bool
	openHandles int
	waiters     []*sim.Process
}

// extent is one buffered write range [start, end), attributed to the node
// that produced it (physical flushes charge that node's mesh path).
type extent struct {
	start, end int64
	node       int
}

func (fs *FileSystem) buffer(name string) *fileBuffer {
	fb := fs.buffers[name]
	if fb == nil {
		fb = &fileBuffer{name: name}
		fs.buffers[name] = fb
	}
	return fb
}

// addExtent buffers a write. With aggregation, overlapping or adjacent
// extents coalesce into one, and fb.bytes grows only by the bytes the merge
// adds: rewriting buffered bytes buffers nothing new, and counting it would
// leave fb.bytes above zero once every extent is flushed. Without
// aggregation, each write stays its own extent (still asynchronous, but
// physically small).
func (fs *FileSystem) addExtent(fb *fileBuffer, off, n int64, node int) {
	e := extent{start: off, end: off + n, node: node}
	if !fs.pol.Aggregation {
		fb.bytes += n
		fb.extents = append(fb.extents, e)
		return
	}
	before := extentBytes(fb.extents)
	// Insert sorted, then merge neighbors.
	i := sort.Search(len(fb.extents), func(i int) bool { return fb.extents[i].start >= e.start })
	fb.extents = append(fb.extents, extent{})
	copy(fb.extents[i+1:], fb.extents[i:])
	fb.extents[i] = e
	merged := fb.extents[:0]
	for _, cur := range fb.extents {
		if n := len(merged); n > 0 && cur.start <= merged[n-1].end {
			if cur.end > merged[n-1].end {
				merged[n-1].end = cur.end
			}
			continue
		}
		merged = append(merged, cur)
	}
	fb.extents = merged
	fb.bytes += extentBytes(merged) - before
}

// extentBytes totals the lengths of extents.
func extentBytes(extents []extent) int64 {
	var n int64
	for _, e := range extents {
		n += e.end - e.start
	}
	return n
}

// scheduleFlush starts a background flusher or arms the linger timer.
func (fs *FileSystem) scheduleFlush(fb *fileBuffer) {
	if fb.bytes >= fs.pol.FlushHighWater {
		if !fb.flushing {
			fb.flushing = true
			fs.eng.Spawn("ppfs-flush:"+fb.name, func(p *sim.Process) { fs.runFlush(p, fb) })
		}
		return
	}
	if !fb.timerArmed {
		fb.timerArmed = true
		fs.eng.SpawnAt("ppfs-timer:"+fb.name, fs.pol.FlushInterval, func(p *sim.Process) {
			fb.timerArmed = false
			if fb.bytes > 0 && !fb.flushing {
				fb.flushing = true
				fs.runFlush(p, fb)
			}
		})
	}
}

// runFlush pushes every buffered extent of fb to the file system, then wakes
// drain waiters. It runs with fb.flushing held. With aggregation, the whole
// pending batch goes out as scatter-gather sweeps (one per I/O node) — the
// global request aggregation of §5.2; without, each extent is written
// individually (still asynchronous, but physically small).
func (fs *FileSystem) runFlush(p *sim.Process, fb *fileBuffer) {
	for len(fb.extents) > 0 {
		if fs.pol.Aggregation {
			batch := fb.extents
			fb.extents = nil
			gext := make([]pfs.Extent, len(batch))
			var n int64
			var node int
			for i, e := range batch {
				gext[i] = pfs.Extent{Start: e.start, End: e.end}
				n += e.end - e.start
				node = e.node
			}
			// fb.bytes stays up until the physical writes land, so drain
			// waiters cannot observe a flush-in-flight as "done".
			written, sweeps, err := fs.under.WriteGather(p, node, fb.name, gext)
			if err != nil {
				panic(fmt.Sprintf("ppfs: aggregated flush of %q failed: %v", fb.name, err))
			}
			fb.bytes -= n
			fs.stats.Flushes += int64(sweeps)
			fs.stats.FlushedBytes += written
			continue
		}
		e := fb.extents[0]
		fb.extents = fb.extents[1:]
		n := e.end - e.start
		if _, err := fs.under.Access(p, e.node, fb.name, iotrace.OpWrite, e.start, n); err != nil {
			panic(fmt.Sprintf("ppfs: flush of %q failed: %v", fb.name, err))
		}
		fb.bytes -= n
		fs.stats.Flushes++
		fs.stats.FlushedBytes += n
	}
	fb.flushing = false
	waiters := fb.waiters
	fb.waiters = nil
	for _, w := range waiters {
		p.Wake(w)
	}
}

// drain synchronously empties fb's buffer (reads, closes, lsize, and direct
// writes that would conflict call it).
func (fs *FileSystem) drain(p *sim.Process, fb *fileBuffer) {
	if fb.bytes == 0 && !fb.flushing {
		return
	}
	fs.stats.Drains++
	for fb.bytes > 0 || fb.flushing {
		if !fb.flushing {
			fb.flushing = true
			fs.eng.Spawn("ppfs-drain:"+fb.name, func(fp *sim.Process) { fs.runFlush(fp, fb) })
		}
		fb.waiters = append(fb.waiters, p)
		p.Park("ppfs-drain:" + fb.name)
	}
}

// Interface check.
var _ workload.FS = (*FileSystem)(nil)
