package sim

import (
	"fmt"
	"runtime"
)

// Process is a single thread of simulated activity — in this reproduction, a
// compute node's program, an I/O node server, or a background policy daemon.
// A Process must only be used from its own goroutine (inside the fn passed to
// Spawn); the lock-step scheduler guarantees no two processes ever run
// concurrently.
//
// The struct and its handoff channels outlive the process: when a process
// finishes, the engine parks them on a free list and reissues them to a
// later Spawn, so process churn costs one goroutine, not a goroutine plus
// three heap objects.
type Process struct {
	eng  *Engine
	id   int
	name string

	resume chan struct{}

	procIdx     int // index in the engine's live-process list
	done        bool
	pendingWake bool
	blockedOn   string // diagnostic: what primitive the process is parked in
}

// top is the body of a process goroutine: wait to be started, run fn, and
// terminate cleanly. A process first resumed by Engine.Retire never runs fn.
func (p *Process) top(fn func(p *Process)) {
	<-p.resume // wait for the scheduler to start us
	defer func() {
		if r := recover(); r != nil {
			// A real fault: crash loudly rather than dispatching, so the
			// runtime reports the panic with this goroutine's stack.
			panic(r)
		}
		// Normal return, or runtime.Goexit (e.g. t.Fatal inside a process
		// during tests): retire the process and hand control to whoever is
		// due next so the simulation keeps running.
		p.done = true
		e := p.eng
		e.living--
		e.unregister(p)
		e.recycle(p)
		e.dispatch(e.advance())
	}()
	if !p.eng.retiring {
		fn(p)
	}
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// ID returns the process's unique id (assigned in spawn order).
func (p *Process) ID() int { return p.id }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// block suspends the process until its next wake event pops. The blocking
// process dispatches its successor itself: it runs the engine's advance loop
// and resumes the next due process with a single direct channel handoff —
// the engine goroutine stays asleep. When the next due event is the caller's
// own wake-up, block returns without any handoff at all.
func (p *Process) block(why string) {
	p.blockedOn = why
	e := p.eng
	next := e.advance()
	if next == p {
		// Our own wake-up is the next event; keep running in place.
		p.blockedOn = ""
		return
	}
	e.dispatch(next)
	<-p.resume
	if e.retiring {
		// Engine.Retire: unwind through top's retire path.
		runtime.Goexit()
	}
	p.blockedOn = ""
}

// Sleep advances this process's local activity by d: it blocks and resumes
// once the simulated clock has advanced by d. Sleeping for zero time yields
// to other processes scheduled at the same instant.
//
// Fast path: when this process's own wake-up is the head of the queue
// (nothing else is due at or before it) and lies within the engine's run
// horizon, the process pops its event, advances the clock, and keeps running
// — no dispatch loop, no handoff. The popped event is exactly the one
// advance would have popped, so scheduling order, tie-breaking, and the
// clock are bit-identical to the general path.
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %q", d, p.name))
	}
	e := p.eng
	at := e.now + d
	e.schedule(p, at)
	if !e.stopped && (e.limit < 0 || at <= e.limit) {
		if head, ok := e.events.min(); ok && head.p == p {
			// A process has at most one pending event (double wakes panic),
			// so the queue head being ours means our fresh wake is the
			// strict minimum.
			e.events.pop()
			p.pendingWake = false
			e.now = at
			return
		}
	}
	p.block("sleep")
}

// Park blocks the process indefinitely until some other process wakes it via
// Wake. It is the building block for resources, barriers and queues. Parking
// with nobody to wake you is a deadlock, which Engine.Run reports.
func (p *Process) Park(why string) {
	p.block(why)
}

// Wake schedules a parked process to resume at the current simulated time.
// It must be called by the currently running process (or before Run starts).
// Waking a process that already has a pending wake is a programming error and
// panics, because it indicates two primitives both believe they own the
// parked process.
func (p *Process) Wake(target *Process) {
	p.eng.schedule(target, p.eng.now)
}

// WakeAt schedules a parked process to resume at the given absolute time.
func (p *Process) WakeAt(target *Process, at Time) {
	p.eng.schedule(target, at)
}
