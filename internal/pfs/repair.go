// The repair control plane. An I/O-node outage opens a window of
// vulnerability: writes whose primary is down land sloppily on a surviving
// replica (recorded in the redirect ledger), and mirror writes whose target
// is down are skipped (recorded as mirror misses). Both feed an
// under-replication index keyed by (node, tagged address); outage events from
// internal/fault stamp the window boundaries and nudge the drain. A
// background repair daemon — spawned on demand, exiting when the ledger is
// empty so the engine can drain — re-replicates each missing copy through
// the normal node path (mesh hop, queueing, cache, integrity verify-on-read,
// disk scheduler) under a configurable bandwidth throttle, restoring full
// redundancy some finite time after the outage ends.
package pfs

import (
	"errors"
	"fmt"

	"repro/internal/integrity"
	"repro/internal/sim"
)

// RepairConfig governs the background repair daemon. The zero value disables
// it: missed copies stay missing, exactly as before this subsystem existed.
type RepairConfig struct {
	// Enabled turns the repair control plane on. Requires an effective
	// replication factor >= 2 to have anything to repair.
	Enabled bool

	// BandwidthBytesPerS caps the average re-replication rate: after each
	// repaired chunk the daemon sleeps chunk/bandwidth, so repair traffic
	// cannot monopolize the arrays. 0 = unthrottled.
	BandwidthBytesPerS float64

	// GiveUp abandons a ledger entry still unrepaired this long after it
	// was enqueued (a bandwidth-starved or perpetually-blocked backlog
	// surfaces as permanently lost redundancy instead of an ever-growing
	// queue). 0 = never give up.
	GiveUp sim.Time
}

// DefaultRepairConfig returns the enabled policy: repair throttled to
// 32 MB/s, never giving up.
func DefaultRepairConfig() RepairConfig {
	return RepairConfig{Enabled: true, BandwidthBytesPerS: 32 << 20}
}

func (c RepairConfig) validate() error {
	if c.BandwidthBytesPerS < 0 {
		return fmt.Errorf("pfs: negative repair bandwidth %g B/s", c.BandwidthBytesPerS)
	}
	if c.GiveUp < 0 {
		return fmt.Errorf("pfs: negative repair give-up %v", c.GiveUp)
	}
	return nil
}

// RepairStats counts the repair control plane's activity. All zeros on a
// healthy run or with repair disabled.
type RepairStats struct {
	Outages      int64 // I/O-node outage windows observed
	SloppyWrites int64 // writes that completed on a replica while the primary was down
	MirrorMisses int64 // replica copies skipped because their target was down

	LedgerPuts   int64 // under-replication entries enqueued (after dedup)
	LedgerDrains int64 // entries resolved by the daemon (repaired or abandoned)
	LedgerPeak   int64 // deepest the redirect ledger ever got

	Sweeps         int64    // daemon activations
	ChunksRepaired int64    // copies restored
	BytesRepaired  int64    // bytes re-replicated
	Abandoned      int64    // entries given up on (dead array, corrupt source, or GiveUp age)
	ThrottleTime   sim.Time // total bandwidth-throttle sleep

	FirstVulnerableAt    sim.Time // first outage start (0 = never vulnerable)
	LastOutageEndAt      sim.Time // most recent outage end
	RedundancyRestoredAt sim.Time // instant the ledger last drained to empty
}

// TimeToFullRedundancy is how long after the last outage ended the fleet
// stayed under-replicated (0 when nothing needed repair).
func (s RepairStats) TimeToFullRedundancy() sim.Time {
	if s.RedundancyRestoredAt <= s.LastOutageEndAt {
		return 0
	}
	return s.RedundancyRestoredAt - s.LastOutageEndAt
}

// WindowOfVulnerability spans from the first outage to the instant
// redundancy was last restored (the period a second failure could have lost
// data).
func (s RepairStats) WindowOfVulnerability() sim.Time {
	end := s.RedundancyRestoredAt
	if s.LastOutageEndAt > end {
		end = s.LastOutageEndAt
	}
	if s.FirstVulnerableAt == 0 || end <= s.FirstVulnerableAt {
		return 0
	}
	return end - s.FirstVulnerableAt
}

// Capped truncates the outage-side stamps at the app's last traced
// operation, mirroring the incident-timeline convention: fault windows
// scheduled past completion must not widen the reported vulnerability.
// Repair-side stamps are left untouched — the daemon legitimately drains
// its backlog after the app finishes.
func (s RepairStats) Capped(end sim.Time) RepairStats {
	if s.FirstVulnerableAt > end {
		s.FirstVulnerableAt = 0
		s.LastOutageEndAt = 0
		return s
	}
	if s.LastOutageEndAt > end {
		s.LastOutageEndAt = end
	}
	return s
}

// repairKey identifies one missing copy: the tagged address names both the
// chunk and the copy index, target the node that should hold it.
type repairKey struct {
	target int
	addr   int64
}

// repairEntry is one under-replicated chunk copy awaiting repair.
type repairEntry struct {
	f       *File
	primary int      // the chunk's primary I/O node
	copy    int      // which copy is missing (0 = the primary copy itself)
	src     int      // copy index known to hold fresh data
	addr    int64    // untagged array address of the chunk
	chunk   int64    // bytes
	enq     sim.Time // enqueue instant, for GiveUp aging
}

// repairState is the under-replication index plus the daemon's bookkeeping.
type repairState struct {
	cfg     RepairConfig
	queue   []repairEntry
	keys    map[repairKey]struct{}
	running bool
	seq     int64
	stats   RepairStats
}

func newRepairState(cfg RepairConfig) *repairState {
	return &repairState{cfg: cfg, keys: make(map[repairKey]struct{})}
}

// RepairEnabled reports whether the repair control plane is active.
func (fs *FileSystem) RepairEnabled() bool { return fs.rep != nil }

// RepairStats returns the accumulated repair counters (zero when disabled).
func (fs *FileSystem) RepairStats() RepairStats {
	if fs.rep == nil {
		return RepairStats{}
	}
	return fs.rep.stats
}

// RepairBacklog returns the current redirect-ledger depth.
func (fs *FileSystem) RepairBacklog() int {
	if fs.rep == nil {
		return 0
	}
	return len(fs.rep.queue)
}

// NoteOutageStart records an I/O-node outage opening — the fault injector's
// feed into the under-replication index. No-op with repair disabled.
func (fs *FileSystem) NoteOutageStart(node int, at sim.Time) {
	if fs.rep == nil || node < 0 || node >= len(fs.ion) {
		return
	}
	fs.rep.stats.Outages++
	if fs.rep.stats.FirstVulnerableAt == 0 {
		fs.rep.stats.FirstVulnerableAt = at
	}
}

// NoteOutageEnd records an outage closing and nudges the daemon: entries
// destined for the restored node become repairable.
func (fs *FileSystem) NoteOutageEnd(node int, at sim.Time) {
	if fs.rep == nil || node < 0 || node >= len(fs.ion) {
		return
	}
	fs.rep.stats.LastOutageEndAt = at
	fs.ensureRepair()
}

// noteSloppyWrite records a write that completed on replica copy r while the
// primary was down: every other copy of the chunk is now stale and enters
// the ledger with r as its source.
func (fs *FileSystem) noteSloppyWrite(f *File, primary, r int, addr, chunk int64) {
	if fs.rep == nil {
		return
	}
	fs.rep.stats.SloppyWrites++
	for c := 0; c < fs.rf; c++ {
		if c != r {
			fs.enqueueRepair(f, primary, c, r, addr, chunk)
		}
	}
}

// noteMirrorMiss records a replica write that could not reach its target;
// the primary copy (just written) is the repair source.
func (fs *FileSystem) noteMirrorMiss(f *File, primary, r int, addr, chunk int64) {
	if fs.rep == nil {
		return
	}
	fs.rep.stats.MirrorMisses++
	fs.enqueueRepair(f, primary, r, 0, addr, chunk)
}

// enqueueRepair adds one missing copy to the index, deduplicating repeated
// writes to the same chunk, and makes sure a daemon is draining.
func (fs *FileSystem) enqueueRepair(f *File, primary, copy, src int, addr, chunk int64) {
	rp := fs.rep
	target := fs.placer().target(primary, copy)
	if fs.ion[target].Array().Dead() {
		return // nothing will ever accept this copy again
	}
	key := repairKey{target: target, addr: replicaAddr(addr, copy)}
	if _, dup := rp.keys[key]; dup {
		return
	}
	rp.keys[key] = struct{}{}
	rp.queue = append(rp.queue, repairEntry{
		f: f, primary: primary, copy: copy, src: src,
		addr: addr, chunk: chunk, enq: fs.eng.Now(),
	})
	rp.stats.LedgerPuts++
	if d := int64(len(rp.queue)); d > rp.stats.LedgerPeak {
		rp.stats.LedgerPeak = d
	}
	fs.ensureRepair()
}

// ensureRepair spawns the repair daemon when there is work and none running.
// The daemon exits once the ledger is empty, so a run with no misses never
// pays for it and the engine always drains.
func (fs *FileSystem) ensureRepair() {
	rp := fs.rep
	if rp == nil || rp.running || len(rp.queue) == 0 {
		return
	}
	rp.running = true
	rp.seq++
	rp.stats.Sweeps++
	fs.eng.Spawn(fmt.Sprintf("pfs-repair%d", rp.seq), fs.repairSweep)
}

// repairStallPoll is how long the daemon sleeps when every pending entry is
// blocked on a node that is still down. Outages are finite (their driver
// processes restore the node), so the poll always ends.
const repairStallPoll = 100 * sim.Millisecond

// repairSweep drains the ledger: each entry is re-replicated from its source
// copy through the normal node path, throttled to the configured bandwidth.
// Entries whose target or source is still down cycle to the back of the
// queue; when a full pass makes no progress the daemon sleeps and retries.
func (fs *FileSystem) repairSweep(p *sim.Process) {
	rp := fs.rep
	stalled := 0
	for len(rp.queue) > 0 {
		e := rp.queue[0]
		rp.queue = rp.queue[1:]
		key := repairKey{target: fs.placer().target(e.primary, e.copy), addr: replicaAddr(e.addr, e.copy)}
		if rp.cfg.GiveUp > 0 && p.Now()-e.enq > rp.cfg.GiveUp {
			fs.resolveRepair(key, false)
			continue
		}
		switch fs.repairChunk(p, e) {
		case repairDone:
			stalled = 0
			fs.resolveRepair(key, true)
			rp.stats.BytesRepaired += e.chunk
			if bw := rp.cfg.BandwidthBytesPerS; bw > 0 {
				d := sim.FromSeconds(float64(e.chunk) / bw)
				rp.stats.ThrottleTime += d
				p.Sleep(d)
			}
		case repairBlocked:
			rp.queue = append(rp.queue, e)
			stalled++
			if stalled > len(rp.queue) {
				p.Sleep(repairStallPoll)
				stalled = 0
			}
		case repairHopeless:
			fs.resolveRepair(key, false)
		}
	}
	rp.running = false
	rp.stats.RedundancyRestoredAt = p.Now()
}

// resolveRepair closes one ledger entry.
func (fs *FileSystem) resolveRepair(key repairKey, repaired bool) {
	rp := fs.rep
	delete(rp.keys, key)
	rp.stats.LedgerDrains++
	if repaired {
		rp.stats.ChunksRepaired++
	} else {
		rp.stats.Abandoned++
	}
}

type repairOutcome int

const (
	repairDone repairOutcome = iota
	repairBlocked
	repairHopeless
)

// repairChunk restores one missing copy: read the chunk from its source copy
// and write it to the target, both through tryNode so the mesh hop, node
// queueing, cache, integrity verification and disk scheduling all apply.
func (fs *FileSystem) repairChunk(p *sim.Process, e repairEntry) repairOutcome {
	pl := fs.placer()
	srcIon := pl.target(e.primary, e.src)
	dstIon := pl.target(e.primary, e.copy)
	if fs.ion[dstIon].Array().Dead() {
		return repairHopeless
	}
	if fs.ion[srcIon].Down() || fs.ion[dstIon].Down() {
		return repairBlocked
	}
	fid := int64(e.f.id)
	if err := fs.tryNode(p, fs.ionHome[dstIon], srcIon,
		replicaStream(fid, e.src), replicaAddr(e.addr, e.src), e.chunk, true); err != nil {
		if errors.Is(err, integrity.ErrCorrupt) {
			// The only copy we can read from is corrupt; rewriting it onto
			// the target would launder the corruption into a valid
			// checksum. Leave the entry to the integrity machinery.
			return repairHopeless
		}
		return repairBlocked
	}
	if err := fs.tryNode(p, fs.ionHome[srcIon], dstIon,
		replicaStream(fid, e.copy), replicaAddr(e.addr, e.copy), e.chunk, false); err != nil {
		return repairBlocked
	}
	return repairDone
}
