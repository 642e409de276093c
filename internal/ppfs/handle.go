package ppfs

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Handle is one node's PPFS descriptor. For M_UNIX and M_ASYNC files with
// policies enabled it manages its own file pointer and routes data through
// the policy layer; the shared-pointer and record modes delegate to the
// native handle.
type Handle struct {
	fs    *FileSystem
	under *pfs.Handle
	node  int
	name  string
	file  iotrace.FileID
	mode  iotrace.AccessMode

	offset int64
	closed bool
}

// Mode returns the handle's access mode.
func (h *Handle) Mode() iotrace.AccessMode { return h.mode }

// Offset returns the policy layer's file pointer (cached modes) or the
// native pointer (delegated modes).
func (h *Handle) Offset() int64 {
	if h.cached() {
		return h.offset
	}
	return h.under.Offset()
}

// cached reports whether the policy layer mediates this handle's data path.
func (h *Handle) cached() bool {
	if h.mode != iotrace.ModeUnix && h.mode != iotrace.ModeAsync {
		return false
	}
	return h.fs.pol.WriteBehind || h.fs.cache != nil
}

// size returns the file's logical size: the physical extent plus anything
// still sitting in the write buffer.
func (h *Handle) size() int64 {
	info, _ := h.fs.under.Stat(h.name)
	size := info.Size
	for _, e := range h.fs.buffer(h.name).extents {
		if e.end > size {
			size = e.end
		}
	}
	return size
}

// Write implements workload.Handle.
func (h *Handle) Write(p *sim.Process, n int64) (int64, error) {
	if h.closed {
		return 0, pfs.ErrClosed
	}
	if n < 0 {
		return 0, pfs.ErrBadRequest
	}
	if !h.cached() {
		start := p.Now()
		done, err := h.under.Write(p, n)
		h.fs.class.Observe(h.file, h.node, iotrace.OpWrite, h.under.Offset()-done, done)
		h.fs.record(h.node, iotrace.OpWrite, h.file, h.under.Offset()-done, done, start, h.mode)
		return done, err
	}

	fs := h.fs
	start := p.Now()
	off := h.offset
	p.Sleep(fs.under.Config().Cost.ClientOverhead)
	fs.class.Observe(h.file, h.node, iotrace.OpWrite, off, n)
	h.invalidate(off, n)

	// The adaptive classifier and the policy defaults decide whether this
	// write is buffered.
	writeBehind := h.wantWriteBehind(n)
	fb := fs.buffer(h.name)
	if writeBehind {
		fs.copyCost(p, n)
		fs.addExtent(fb, off, n, h.node)
		fs.stats.BufferedWrites++
		fs.scheduleFlush(fb)
	} else {
		fs.drain(p, fb)
		if _, err := fs.under.Access(p, h.node, h.name, iotrace.OpWrite, off, n); err != nil {
			return 0, err
		}
		fs.stats.DirectWrites++
	}
	h.offset = off + n
	fs.record(h.node, iotrace.OpWrite, h.file, off, n, start, h.mode)
	return n, nil
}

// Read implements workload.Handle.
func (h *Handle) Read(p *sim.Process, n int64) (int64, error) {
	if h.closed {
		return 0, pfs.ErrClosed
	}
	if n < 0 {
		return 0, pfs.ErrBadRequest
	}
	if !h.cached() {
		start := p.Now()
		done, err := h.under.Read(p, n)
		h.fs.class.Observe(h.file, h.node, iotrace.OpRead, h.under.Offset()-done, done)
		h.fs.record(h.node, iotrace.OpRead, h.file, h.under.Offset()-done, done, start, h.mode)
		return done, err
	}
	start := p.Now()
	done, err := h.readAt(p, h.offset, n)
	h.fs.record(h.node, iotrace.OpRead, h.file, h.offset, done, start, h.mode)
	h.offset += done
	return done, err
}

// readAt is the cached-mode read path: drain conflicting buffered writes,
// then serve from the block cache (fetching and prefetching as the policy
// directs) or stream large requests around it.
func (h *Handle) readAt(p *sim.Process, off, n int64) (int64, error) {
	fs := h.fs
	p.Sleep(fs.under.Config().Cost.ClientOverhead)
	fs.class.Observe(h.file, h.node, iotrace.OpRead, off, n)

	fb := fs.buffer(h.name)
	if fb.bytes > 0 {
		fs.drain(p, fb)
	}
	info, _ := fs.under.Stat(h.name)
	if off >= info.Size {
		return 0, pfs.ErrEOF
	}
	if off+n > info.Size {
		n = info.Size - off
	}
	if n == 0 {
		return 0, nil
	}

	if fs.cache == nil || n >= fs.pol.BypassBytes {
		// Stream directly; no cache pollution.
		if _, err := fs.under.Access(p, h.node, h.name, iotrace.OpRead, off, n); err != nil {
			return 0, err
		}
		fs.copyCost(p, n)
		return n, nil
	}

	bs := fs.pol.BlockSize
	for b := off / bs; b*bs < off+n; b++ {
		if err := h.ensureBlock(p, b, info.Size); err != nil {
			return 0, err
		}
	}
	fs.copyCost(p, n)
	fs.stats.CacheHits += n
	h.maybePrefetch(p, off+n, info.Size)
	return n, nil
}

// ensureBlock makes block b resident, fetching it synchronously on a miss
// and waiting on in-flight fetches.
func (h *Handle) ensureBlock(p *sim.Process, b int64, fileSize int64) error {
	fs := h.fs
	key := blockKey{h.file, b}
	if blk := fs.cache.lookup(key); blk != nil {
		if blk.state == blockPending {
			fs.stats.PrefetchHits++
			blk.comp.Await(p)
		}
		return nil
	}
	fs.stats.CacheMisses++
	comp := sim.NewCompletion(fmt.Sprintf("ppfs-fetch:%s:%d", h.name, b))
	blk := fs.cache.insert(key, blockPending, comp)
	bs := fs.pol.BlockSize
	size := bs
	if b*bs+size > fileSize {
		size = fileSize - b*bs
	}
	_, err := fs.under.Access(p, h.node, h.name, iotrace.OpRead, b*bs, size)
	fs.cache.ready(blk)
	comp.Complete(p)
	return err
}

// prefetchDepth resolves the effective readahead depth for a handle: the
// adaptive classifier switches prefetch off for non-sequential streams,
// otherwise the policy decides.
func (h *Handle) prefetchDepth() int {
	fs := h.fs
	if fs.pol.Adaptive && fs.class.Classify(h.file, h.node).Pattern != PatternSequential {
		return 0
	}
	return fs.pol.Prefetch
}

// wantWriteBehind resolves whether a write of n bytes should be buffered.
func (h *Handle) wantWriteBehind(n int64) bool {
	fs := h.fs
	if !fs.pol.WriteBehind || n >= fs.pol.DirectWriteBytes {
		return false
	}
	if fs.pol.Adaptive {
		cl := fs.class.Classify(h.file, h.node)
		if cl.Pattern == PatternSequential && cl.MeanBytes >= fs.pol.DirectWriteBytes {
			return false
		}
	}
	return true
}

// maybePrefetch issues asynchronous readahead when the adaptive classifier
// or the unconditional policy calls for it.
func (h *Handle) maybePrefetch(p *sim.Process, from, fileSize int64) {
	fs := h.fs
	depth := h.prefetchDepth()
	if depth == 0 || fs.cache == nil {
		return
	}
	bs := fs.pol.BlockSize
	next := from / bs
	for k := 0; k < depth; k++ {
		b := next + int64(k)
		if b*bs >= fileSize {
			return
		}
		key := blockKey{h.file, b}
		if fs.cache.lookup(key) != nil {
			continue
		}
		comp := sim.NewCompletion(fmt.Sprintf("ppfs-prefetch:%s:%d", h.name, b))
		blk := fs.cache.insert(key, blockPending, comp)
		fs.stats.Prefetches++
		size := bs
		if b*bs+size > fileSize {
			size = fileSize - b*bs
		}
		node, name := h.node, h.name
		fs.eng.Spawn(fmt.Sprintf("ppfs-pf:%s:%d", name, b), func(bg *sim.Process) {
			fs.under.Access(bg, node, name, iotrace.OpRead, b*bs, size)
			fs.cache.ready(blk)
			comp.Complete(bg)
		})
	}
}

// invalidate drops cached blocks overlapping a written range.
func (h *Handle) invalidate(off, n int64) {
	if h.fs.cache == nil || n == 0 {
		return
	}
	bs := h.fs.pol.BlockSize
	for b := off / bs; b*bs < off+n; b++ {
		h.fs.cache.drop(blockKey{h.file, b})
	}
}

// Seek implements workload.Handle. In cached modes PPFS pointers are
// client-local (it is a user-level library), so seeks cost only the client
// overhead — one of the reasons the §5.2 port removed ESCAT's dominant cost.
func (h *Handle) Seek(p *sim.Process, offset int64, whence int) (int64, error) {
	if h.closed {
		return 0, pfs.ErrClosed
	}
	if !h.cached() {
		start := p.Now()
		pos, err := h.under.Seek(p, offset, whence)
		if err != nil {
			return 0, err
		}
		h.fs.record(h.node, iotrace.OpSeek, h.file, pos, 0, start, h.mode)
		return pos, nil
	}
	start := p.Now()
	p.Sleep(h.fs.under.Config().Cost.ClientOverhead)
	base := int64(0)
	switch whence {
	case pfs.SeekStart:
	case pfs.SeekCurrent:
		base = h.offset
	case pfs.SeekEnd:
		base = h.size()
	default:
		return 0, fmt.Errorf("whence %d: %w", whence, pfs.ErrBadSeek)
	}
	target := base + offset
	if target < 0 {
		return 0, fmt.Errorf("offset %d: %w", target, pfs.ErrBadSeek)
	}
	dist := target - h.offset
	if dist < 0 {
		dist = -dist
	}
	h.offset = target
	h.fs.record(h.node, iotrace.OpSeek, h.file, target, dist, start, h.mode)
	return target, nil
}

// ppfsAsync is an in-flight PPFS asynchronous read.
type ppfsAsync struct {
	h      *Handle
	comp   *sim.Completion
	bytes  int64
	err    error
	offset int64
	waited bool
}

// ReadAsync implements workload.Handle: the read proceeds through the cached
// path on a background process.
func (h *Handle) ReadAsync(p *sim.Process, n int64) (workload.AsyncRead, error) {
	if h.closed {
		return nil, pfs.ErrClosed
	}
	if !h.cached() {
		ar, err := h.under.ReadAsync(p, n)
		if err != nil {
			return nil, err
		}
		return ar, nil
	}
	fs := h.fs
	start := p.Now()
	p.Sleep(fs.under.Config().Cost.AsyncIssue)
	off := h.offset
	logical := h.size()
	if off >= logical {
		fs.record(h.node, iotrace.OpAsyncRead, h.file, off, 0, start, h.mode)
		c := sim.NewCompletion("ppfs-aread-eof")
		c.Complete(p)
		return &ppfsAsync{h: h, comp: c, err: pfs.ErrEOF, offset: off}, nil
	}
	if off+n > logical {
		n = logical - off
	}
	h.offset = off + n
	ar := &ppfsAsync{
		h:      h,
		comp:   sim.NewCompletion(fmt.Sprintf("ppfs-aread:%s:%d", h.name, off)),
		bytes:  n,
		offset: off,
	}
	fs.eng.Spawn(fmt.Sprintf("ppfs-aread:%s:%d", h.name, off), func(bg *sim.Process) {
		if _, err := h.readAt(bg, off, n); err != nil {
			ar.err = err
		}
		ar.comp.Complete(bg)
	})
	fs.record(h.node, iotrace.OpAsyncRead, h.file, off, n, start, h.mode)
	return ar, nil
}

// Wait implements workload.AsyncRead.
func (a *ppfsAsync) Wait(p *sim.Process) (int64, error) {
	if a.waited {
		return a.bytes, a.err
	}
	a.waited = true
	start := p.Now()
	a.comp.Await(p)
	a.h.fs.record(a.h.node, iotrace.OpIOWait, a.h.file, a.offset, 0, start, a.h.mode)
	return a.bytes, a.err
}

// Done implements workload.AsyncRead.
func (a *ppfsAsync) Done() bool { return a.comp.Done() }

// Bytes implements workload.AsyncRead.
func (a *ppfsAsync) Bytes() int64 { return a.bytes }

// Lsize implements workload.Handle.
func (h *Handle) Lsize(p *sim.Process) (int64, error) {
	if h.closed {
		return 0, pfs.ErrClosed
	}
	start := p.Now()
	logical := h.size() // includes buffered extents
	if _, err := h.under.Lsize(p); err != nil {
		return 0, err
	}
	h.fs.record(h.node, iotrace.OpLsize, h.file, 0, 0, start, h.mode)
	return logical, nil
}

// Flush implements workload.Handle: drains buffered writes, then flushes the
// native layer.
func (h *Handle) Flush(p *sim.Process) error {
	if h.closed {
		return pfs.ErrClosed
	}
	start := p.Now()
	h.fs.drain(p, h.fs.buffer(h.name))
	if err := h.under.Flush(p); err != nil {
		return err
	}
	h.fs.record(h.node, iotrace.OpFlush, h.file, h.offset, 0, start, h.mode)
	return nil
}

// SetIOMode implements workload.Handle.
func (h *Handle) SetIOMode(p *sim.Process, mode iotrace.AccessMode, recordLen int64) error {
	if h.closed {
		return pfs.ErrClosed
	}
	h.fs.drain(p, h.fs.buffer(h.name))
	if err := h.under.SetIOMode(p, mode, recordLen); err != nil {
		return err
	}
	h.mode = mode
	return nil
}

// Close implements workload.Handle: drains this file's buffered writes, then
// closes the native handle.
func (h *Handle) Close(p *sim.Process) error {
	if h.closed {
		return pfs.ErrClosed
	}
	start := p.Now()
	fb := h.fs.buffer(h.name)
	h.fs.drain(p, fb)
	if err := h.under.Close(p); err != nil {
		return err
	}
	h.closed = true
	fb.openHandles--
	h.fs.record(h.node, iotrace.OpClose, h.file, 0, 0, start, h.mode)
	return nil
}

// Interface check.
var _ workload.Handle = (*Handle)(nil)
