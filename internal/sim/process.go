package sim

import (
	"errors"
	"fmt"
)

// Process is a single thread of simulated activity — in this reproduction, a
// compute node's program, an I/O node server, or a background policy daemon.
// A Process must only be used from its own body (inside the fn passed to
// Spawn); the dispatch loop guarantees no two processes ever run
// concurrently.
//
// The struct and its coroutine outlive the process: when a body finishes,
// the coroutine idles on the engine's free list until a later Spawn hands it
// the next body, so process churn within a run costs neither a goroutine nor
// an allocation.
type Process struct {
	eng  *Engine
	id   int
	name string

	fn     func(p *Process)        // body not yet started by the coroutine
	resume func() (struct{}, bool) // runs the coroutine until it yields; nil once halted
	stop   func()                  // ends the coroutine, unwinding a parked body
	yield  func(struct{}) bool     // returns control to the dispatch loop

	procIdx     int // index in the engine's live-process list
	done        bool
	pendingWake bool
	granted     bool   // woken by a Resource unit hand-off, not ejected by Break
	blockedOn   string // diagnostic: what primitive the process is parked in
	blockedTurn int    // diagnostic: the sequencer turn awaited, or -1
}

// errRetired unwinds a parked body whose coroutine Engine.Retire stopped.
var errRetired = errors.New("sim: process retired")

// loop is the coroutine: run the current body, retire it, then idle until a
// later Spawn reissues the process with a new body or the engine stops the
// coroutine.
func (p *Process) loop(yield func(struct{}) bool) {
	p.yield = yield
	for p.runBody() {
		p.eng.exit(p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs the process's body and reports whether it returned normally;
// false means Retire unwound it. Any other panic propagates through the
// dispatch loop to the caller of Run.
func (p *Process) runBody() (finished bool) {
	defer func() {
		if r := recover(); r != nil && r != errRetired {
			panic(r)
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return true
}

// halt stops the process's coroutine, if it has one.
func (p *Process) halt() {
	if p.stop != nil {
		stop := p.stop
		p.resume, p.stop = nil, nil
		stop()
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

// block suspends the process until its next wake event pops: it yields to
// the dispatch loop, which resumes it when that event is due. A false yield
// means Retire stopped the coroutine; the body unwinds from here.
func (p *Process) block(why string) {
	p.blockedOn = why
	if !p.yield(struct{}{}) {
		panic(errRetired)
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
// — no yield to the dispatch loop. The popped event is exactly the one the
// loop would have popped, so scheduling order, tie-breaking, and the clock
// are bit-identical to the general path.
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
