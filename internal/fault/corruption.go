package fault

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/integrity"
	"repro/internal/ionode"
	"repro/internal/sim"
)

// CorruptionPlan schedules silent data corruption against the I/O nodes'
// checksum stores: bit-rot as a per-node exponential arrival process scaled
// by resident data, plus per-write torn-write and misdirected-write
// probabilities armed on the write path. The zero value schedules nothing.
type CorruptionPlan struct {
	// BitRotPerGBHour is the bit-rot arrival rate per resident gigabyte per
	// hour on each node. The instantaneous rate tracks the node's tracked
	// data, so empty stores never rot.
	BitRotPerGBHour float64

	// Start and End bound the bit-rot window. End defaults to 600 s (the
	// chaos-window convention); the driver process terminates at End so the
	// engine can drain.
	Start, End sim.Time

	// TornWriteProb is the per-write probability that the write's final
	// block persists torn (unrepairable by parity).
	TornWriteProb float64

	// MisdirectProb is the per-write probability that the write also lands
	// on a random resident victim block, silently overwriting it.
	MisdirectProb float64
}

// Empty reports whether the plan schedules no corruption.
func (c CorruptionPlan) Empty() bool {
	return c.BitRotPerGBHour <= 0 && c.TornWriteProb <= 0 && c.MisdirectProb <= 0
}

// ParseCorruptionClasses builds a corruption plan from a comma-separated
// class list ("bit-rot,torn-write", or "all" for every class), using
// moderate default rates: bit-rot at 2e5 arrivals per GB-hour inside
// [0, window), and 2% torn/misdirected write probabilities. The CLI form of
// CorruptionPlan.
func ParseCorruptionClasses(spec string, window sim.Time) (CorruptionPlan, error) {
	cp := CorruptionPlan{End: window}
	if spec == "all" {
		spec = "bit-rot,torn-write,misdirected-write"
	}
	for _, name := range strings.Split(spec, ",") {
		k, err := ParseKind(strings.TrimSpace(name))
		if err != nil {
			return CorruptionPlan{}, err
		}
		switch k {
		case BitRot:
			cp.BitRotPerGBHour = 2e5
		case TornWrite:
			cp.TornWriteProb = 0.02
		case MisdirectedWrite:
			cp.MisdirectProb = 0.02
		default:
			return CorruptionPlan{}, fmt.Errorf("fault: %s is not a corruption class", k)
		}
	}
	return cp, nil
}

// ArmCorruption installs the corruption plan on a machine's I/O nodes:
// write-path injection policies are armed on every checksum store, and a
// bit-rot driver process is spawned per node. Each node gets independent RNG
// streams split deterministically from the seed, in node order before the
// integrity-enabled check, so a node's streams do not depend on which other
// nodes have the layer on. No-op when the plan is empty or the integrity
// layer is disabled.
func ArmCorruption(eng *sim.Engine, nodes []*ionode.Node, cp CorruptionPlan, seed uint64) {
	if cp.Empty() {
		return
	}
	end := cp.End
	if end <= 0 {
		end = 600 * sim.Second
	}
	base := sim.NewRNG(seed ^ 0xc0442557)
	for _, n := range nodes {
		writeRNG := base.Split()
		rotRNG := base.Split()
		st := n.Integrity()
		if st == nil {
			continue
		}
		st.Arm(cp.TornWriteProb, cp.MisdirectProb, writeRNG)
		if cp.BitRotPerGBHour <= 0 {
			continue
		}
		node := n
		eng.SpawnAt(fmt.Sprintf("fault:bit-rot@ion%d", node.ID()), cp.Start,
			func(p *sim.Process) { runBitRot(p, node, cp.BitRotPerGBHour, end, rotRNG) })
	}
}

// runBitRot is one node's bit-rot driver: exponential gaps whose rate scales
// with the store's resident bytes, polling while the store is empty, standing
// down at the window end.
func runBitRot(p *sim.Process, n *ionode.Node, perGBHour float64, end sim.Time, rng *sim.RNG) {
	const emptyPoll = 500 * sim.Millisecond
	st := n.Integrity()
	for p.Now() < end {
		residentGB := float64(st.ResidentBytes()) / float64(1<<30)
		if residentGB <= 0 {
			if p.Now()+emptyPoll >= end {
				return
			}
			p.Sleep(emptyPoll)
			continue
		}
		rate := perGBHour * residentGB / 3600 // arrivals per simulated second
		gap := sim.Time(-float64(sim.Second) / rate * math.Log(1-rng.Float64()))
		if gap < 1 {
			gap = 1
		}
		if p.Now()+gap >= end {
			return
		}
		p.Sleep(gap)
		st.InjectBitRot(p.Now(), rng)
	}
}

// CorruptionIncidents converts the integrity layer's corruption events into
// incident-timeline entries, one per injected corruption, so the resilience
// report shows silent-data-corruption events alongside outages and disk
// failures. An event is Open when the corruption was never resolved (latent,
// or detected but unrepairable).
func CorruptionIncidents(events []integrity.Event) []Incident {
	var out []Incident
	for _, ev := range events {
		var kind Kind
		switch ev.Class {
		case integrity.BitRot:
			kind = BitRot
		case integrity.TornWrite:
			kind = TornWrite
		case integrity.Misdirected:
			kind = MisdirectedWrite
		default:
			continue
		}
		inc := Incident{Kind: kind, Node: ev.Node, Start: ev.InjectedAt}
		note := fmt.Sprintf("block %d", ev.Block)
		if ev.Carried {
			note += " (carried from previous attempt)"
		}
		switch {
		case ev.Resolution != integrity.ResOpen:
			inc.End = ev.ResolvedAt
			note += ": " + ev.Resolution.String()
			if ev.Detected {
				note += fmt.Sprintf(", detected by %s", ev.DetectedBy)
			}
		case ev.Detected:
			inc.Open = true
			inc.End = ev.DetectedAt
			note += fmt.Sprintf(": detected by %s, unrepairable", ev.DetectedBy)
		default:
			inc.Open = true
			note += ": latent, undetected"
		}
		inc.Note = note
		out = append(out, inc)
	}
	return out
}
