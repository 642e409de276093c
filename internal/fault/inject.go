package fault

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/ionode"
	"repro/internal/sim"
)

// Incident is one fault's realized lifetime, recorded by the injector for the
// resilience report.
type Incident struct {
	Kind  Kind
	Node  int
	Start sim.Time
	End   sim.Time // meaningful only when Open is false
	Open  bool     // still in effect when the run ended
	Note  string   // e.g. "array dead (second drive failure)"
}

// NodeLossHooks connects NodeLoss events to the compute side of the machine,
// which the injector cannot reach through the I/O-node population. Nodes is
// the compute-partition size (loss events targeting nodes outside it are
// ignored); Undrained reports a node's volatile burst-log content at the loss
// instant (nil or zero without a burst tier); Halt freezes the simulation —
// the job is dead, and nothing (including background drains from surviving
// nodes' logs, which are equally volatile job state in this model) runs on.
type NodeLossHooks struct {
	Nodes     int
	Undrained func(node int) (bytes, records int64)
	Halt      func()

	// OnOutageStart / OnOutageEnd observe I/O-node outage windows: Start
	// fires when an outage takes the node down, End when the last
	// overlapping outage releases it back to service. The file system's
	// repair control plane uses them to stamp availability windows and wake
	// its drain. Nil disables the notifications.
	OnOutageStart func(node int, at sim.Time)
	OnOutageEnd   func(node int, at sim.Time)
}

// NodeLossEvent is one realized compute-node loss.
type NodeLossEvent struct {
	Node             int
	At               sim.Time
	UndrainedBytes   int64
	UndrainedRecords int64
}

// Injector owns the driver processes that realize a materialized schedule
// against a machine's I/O nodes. Create one per simulation run with Inject,
// before the engine runs.
type Injector struct {
	nodes     []*ionode.Node
	incidents []Incident
	downCount []int // overlapping-outage refcount per node
	hooks     NodeLossHooks
	losses    []NodeLossEvent
}

// Inject arms every event in the schedule: each fault gets a driver process
// spawned at its injection time. Events targeting nodes outside the machine
// are ignored. hooks wires NodeLoss events to the compute partition; the zero
// value disables them. The returned Injector accumulates the incident
// timeline.
func Inject(eng *sim.Engine, nodes []*ionode.Node, events []Event, hooks NodeLossHooks) *Injector {
	inj := &Injector{nodes: nodes, downCount: make([]int, len(nodes)), hooks: hooks}
	for _, ev := range events {
		ev := ev
		if ev.Kind == NodeLoss {
			if ev.Node < 0 || ev.Node >= hooks.Nodes {
				continue
			}
			name := fmt.Sprintf("fault:%v@node%d", ev.Kind, ev.Node)
			eng.SpawnAt(name, ev.At, func(p *sim.Process) { inj.runNodeLoss(p, ev) })
			continue
		}
		if ev.Node < 0 || ev.Node >= len(nodes) {
			continue
		}
		name := fmt.Sprintf("fault:%v@ion%d", ev.Kind, ev.Node)
		switch ev.Kind {
		case IONodeOutage:
			eng.SpawnAt(name, ev.At, func(p *sim.Process) { inj.runOutage(p, ev) })
		case LatencyStorm:
			eng.SpawnAt(name, ev.At, func(p *sim.Process) { inj.runStorm(p, ev) })
		case DiskFailure:
			eng.SpawnAt(name, ev.At, func(p *sim.Process) { inj.runDiskFailure(p, ev) })
		}
	}
	return inj
}

// runNodeLoss kills a compute node: it snapshots the node's volatile
// burst-log content for the lost-work accounting, records the incident, and
// halts the simulation — the parallel job cannot survive a member's death.
// Only the first loss acts; the machine is already dead for any later one.
func (inj *Injector) runNodeLoss(p *sim.Process, ev Event) {
	if len(inj.losses) > 0 {
		return
	}
	loss := NodeLossEvent{Node: ev.Node, At: p.Now()}
	if inj.hooks.Undrained != nil {
		loss.UndrainedBytes, loss.UndrainedRecords = inj.hooks.Undrained(ev.Node)
	}
	inj.losses = append(inj.losses, loss)
	i := inj.begin(ev, p.Now())
	note := "compute node lost"
	if loss.UndrainedBytes > 0 {
		note = fmt.Sprintf("compute node lost, %d undrained log bytes in %d records",
			loss.UndrainedBytes, loss.UndrainedRecords)
	}
	inj.close(i, p.Now(), note)
	if inj.hooks.Halt != nil {
		inj.hooks.Halt()
	}
}

// FirstNodeLoss returns the realized compute-node loss that killed the run,
// if any.
func (inj *Injector) FirstNodeLoss() (NodeLossEvent, bool) {
	if len(inj.losses) == 0 {
		return NodeLossEvent{}, false
	}
	return inj.losses[0], true
}

// NodeLosses returns all realized compute-node losses.
func (inj *Injector) NodeLosses() []NodeLossEvent {
	out := make([]NodeLossEvent, len(inj.losses))
	copy(out, inj.losses)
	return out
}

// begin opens an incident and returns its index.
func (inj *Injector) begin(ev Event, at sim.Time) int {
	inj.incidents = append(inj.incidents, Incident{
		Kind: ev.Kind, Node: ev.Node, Start: at, Open: true,
	})
	return len(inj.incidents) - 1
}

func (inj *Injector) close(i int, at sim.Time, note string) {
	inc := &inj.incidents[i]
	inc.End = at
	inc.Open = false
	if note != "" {
		inc.Note = note
	}
}

// runOutage takes the node down for the event duration. Overlapping outages
// on one node are refcounted: the node returns to service when the last one
// ends.
func (inj *Injector) runOutage(p *sim.Process, ev Event) {
	n := inj.nodes[ev.Node]
	i := inj.begin(ev, p.Now())
	inj.downCount[ev.Node]++
	lost0, drains0, ranges0 := cacheOutageCounters(n)
	n.Fail(p)
	if inj.hooks.OnOutageStart != nil {
		inj.hooks.OnOutageStart(ev.Node, p.Now())
	}
	note := cacheOutageNote(n, lost0, drains0, ranges0)
	p.Sleep(ev.Duration)
	inj.downCount[ev.Node]--
	if inj.downCount[ev.Node] == 0 {
		n.Restore(p)
		if inj.hooks.OnOutageEnd != nil {
			inj.hooks.OnOutageEnd(ev.Node, p.Now())
		}
	}
	inj.close(i, p.Now(), note)
}

// cacheOutageCounters snapshots the node cache's outage counters (zero
// without a cache), including how many lost ranges were already recorded so
// the note can report only this outage's losses.
func cacheOutageCounters(n *ionode.Node) (lost, drains int64, ranges int) {
	if s, ok := n.CacheStats(); ok {
		return s.LostDirtyBlocks, s.OutageDrains, len(s.LostRanges)
	}
	return 0, 0, 0
}

// cacheOutageNote describes what the outage did to the node cache's dirty
// blocks — data lost under the write-behind crash policy is invisible in
// latency terms, so the incident timeline records it explicitly, naming the
// exact block ranges lost so the damage is attributable.
func cacheOutageNote(n *ionode.Node, lost0, drains0 int64, ranges0 int) string {
	s, ok := n.CacheStats()
	if !ok {
		return ""
	}
	if lost := s.LostDirtyBlocks - lost0; lost > 0 {
		note := fmt.Sprintf("%d dirty cache blocks lost", lost)
		if ranges0 <= len(s.LostRanges) {
			if fresh := s.LostRanges[ranges0:]; len(fresh) > 0 {
				note += " (blocks " + cache.FormatRanges(fresh) + ")"
				if s.LostRangesDropped > 0 {
					note += ", range list truncated"
				}
			}
		}
		return note
	}
	if s.OutageDrains > drains0 {
		return "dirty cache drained before outage"
	}
	return ""
}

// runStorm raises the node's latency factor for the event duration.
// Overlapping storms on one node do not stack; the most recent setting wins
// and nominal service resumes when the last-started storm ends.
func (inj *Injector) runStorm(p *sim.Process, ev Event) {
	n := inj.nodes[ev.Node]
	i := inj.begin(ev, p.Now())
	f := ev.Factor
	if f <= 0 {
		f = 1
	}
	n.SetLatencyFactor(f)
	p.Sleep(ev.Duration)
	n.SetLatencyFactor(1)
	inj.close(i, p.Now(), fmt.Sprintf("factor %.2g", f))
}

// runDiskFailure fails one drive and then runs the background rebuild: each
// slice acquires the node's service slot, so rebuild bandwidth and foreground
// requests contend for the array (FIFO, or through the node's disk-scheduling
// policy when one is installed). The incident closes when
// the rebuild completes; a second failure in the meantime kills the array and
// the incident records it. While the node itself is down the rebuild stalls,
// polling for the node's return.
func (inj *Injector) runDiskFailure(p *sim.Process, ev Event) {
	n := inj.nodes[ev.Node]
	arr := n.Array()
	wasDegraded := arr.Degraded()
	arr.FailDisk(p.Now())
	i := inj.begin(ev, p.Now())
	if arr.Dead() {
		inj.close(i, p.Now(), "array dead (second drive failure)")
		return
	}
	if wasDegraded {
		// Shouldn't happen (Degraded + one more = Dead), but stay safe.
		inj.close(i, p.Now(), "already degraded")
		return
	}
	const stallPoll = 100 * sim.Millisecond
	for {
		if err := n.AcquireService(p, -1, 0); err != nil {
			// Node is down; rebuild can't touch the array. Outages are
			// finite (driver processes restore them), so poll.
			p.Sleep(stallPoll)
			if arr.Dead() {
				inj.close(i, p.Now(), "array dead (second drive failure)")
				return
			}
			continue
		}
		slice, done := arr.RebuildSlice(p.Now())
		p.Sleep(slice)
		n.ReleaseService(p)
		if arr.Dead() {
			inj.close(i, p.Now(), "array dead (second drive failure)")
			return
		}
		if done {
			inj.close(i, p.Now(), "rebuilt")
			return
		}
	}
}

// Incidents returns the realized fault timeline, sorted by start time (ties
// by node then kind). Incidents still in effect when the run ended have Open
// set and End zero; CloseOpen stamps them instead.
func (inj *Injector) Incidents() []Incident {
	out := make([]Incident, len(inj.incidents))
	copy(out, inj.incidents)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// CloseOpen stamps every still-open incident with the given end time (the
// run's end) without clearing its Open marker, so reports can show both the
// exposure and that the fault outlived the run.
func (inj *Injector) CloseOpen(at sim.Time) {
	for i := range inj.incidents {
		if inj.incidents[i].Open {
			inj.incidents[i].End = at
		}
	}
}
