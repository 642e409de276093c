package analysis

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"slices"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Point is one mark on a timeline figure: an operation plotted at its start
// time, with Y carrying the figure's vertical quantity (request size for the
// operation timelines, file id for the file-access timelines).
type Point struct {
	T    sim.Time
	Y    int64
	Node int
	File iotrace.FileID
	Op   iotrace.Op
}

// OpTimeline extracts the (time, request size) scatter for the given
// operation classes — the shape of Figures 2-4, 6-7 and 9-14. Points are
// returned in time order.
func OpTimeline(events []iotrace.Event, ops ...iotrace.Op) []Point {
	want := maskOf(ops)
	var pts []Point
	for _, e := range events {
		if want.has(e.Op) {
			pts = append(pts, Point{T: e.Start, Y: e.Bytes, Node: e.Node, File: e.File, Op: e.Op})
		}
	}
	sortByTime(pts)
	return pts
}

// opMask is a set of operation classes.
type opMask [iotrace.NumOps]bool

func maskOf(list []iotrace.Op) opMask {
	var s opMask
	for _, op := range list {
		if op.Valid() {
			s[op] = true
		}
	}
	return s
}

func (s *opMask) has(op iotrace.Op) bool { return op.Valid() && s[op] }

// sortByTime orders timeline points by time, keeping trace order among
// points at the same instant.
func sortByTime(pts []Point) {
	slices.SortStableFunc(pts, func(a, b Point) int { return cmp.Compare(a.T, b.T) })
}

// ReadTimeline returns the read-operation timeline (synchronous plus
// asynchronous reads, as the paper's read figures plot).
func ReadTimeline(events []iotrace.Event) []Point {
	return OpTimeline(events, iotrace.OpRead, iotrace.OpAsyncRead)
}

// WriteTimeline returns the write-operation timeline.
func WriteTimeline(events []iotrace.Event) []Point {
	return OpTimeline(events, iotrace.OpWrite)
}

// FileTimeline extracts the (time, file id) scatter of read and write
// activity — the shape of Figures 5, 8 and 15-17, where "crosses denote
// writes and diamonds denote reads".
func FileTimeline(events []iotrace.Event) []Point {
	var pts []Point
	for _, e := range events {
		switch e.Op {
		case iotrace.OpRead, iotrace.OpAsyncRead, iotrace.OpWrite:
			pts = append(pts, Point{T: e.Start, Y: int64(e.File), Node: e.Node, File: e.File, Op: e.Op})
		}
	}
	sortByTime(pts)
	return pts
}

// FilterPhase keeps only events captured during the named application phase.
func FilterPhase(events []iotrace.Event, phase string) []iotrace.Event {
	n := 0
	for _, e := range events {
		if e.Phase == phase {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]iotrace.Event, 0, n)
	for _, e := range events {
		if e.Phase == phase {
			out = append(out, e)
		}
	}
	return out
}

// FilterTime keeps events that start within [from, to).
func FilterTime(events []iotrace.Event, from, to sim.Time) []iotrace.Event {
	var out []iotrace.Event
	for _, e := range events {
		if e.Start >= from && e.Start < to {
			out = append(out, e)
		}
	}
	return out
}

// FilterOps keeps events of the given operation classes.
func FilterOps(events []iotrace.Event, ops ...iotrace.Op) []iotrace.Event {
	want := maskOf(ops)
	var out []iotrace.Event
	for _, e := range events {
		if want.has(e.Op) {
			out = append(out, e)
		}
	}
	return out
}

// WriteCSV emits a timeline as CSV with header, one row per point:
// time_s, y, node, file, op.
func WriteCSV(w io.Writer, pts []Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "y", "node", "file", "op"}); err != nil {
		return err
	}
	for _, p := range pts {
		err := cw.Write([]string{
			fmt.Sprintf("%.6f", p.T.Seconds()),
			fmt.Sprintf("%d", p.Y),
			fmt.Sprintf("%d", p.Node),
			fmt.Sprintf("%d", p.File),
			p.Op.String(),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Burst is one cluster of temporally adjacent operations — e.g. one of
// ESCAT's synchronized quadrature-write groups in Figure 4.
type Burst struct {
	Start sim.Time
	End   sim.Time
	Count int
	Bytes int64
}

// Bursts clusters timeline points: a gap larger than maxGap between
// consecutive points starts a new burst. Points must be time-ordered (as all
// timeline constructors return them).
func Bursts(pts []Point, maxGap sim.Time) []Burst {
	var bursts []Burst
	for _, p := range pts {
		if n := len(bursts); n > 0 && p.T-bursts[n-1].End <= maxGap {
			b := &bursts[n-1]
			b.End = p.T
			b.Count++
			b.Bytes += p.Y
			continue
		}
		bursts = append(bursts, Burst{Start: p.T, End: p.T, Count: 1, Bytes: p.Y})
	}
	return bursts
}

// BurstSpacings returns the time between consecutive burst starts — the
// quantity the paper reads off Figure 4 ("roughly 160 seconds near the
// beginning of the phase to half that near the end").
func BurstSpacings(bursts []Burst) []sim.Time {
	var out []sim.Time
	for i := 1; i < len(bursts); i++ {
		out = append(out, bursts[i].Start-bursts[i-1].Start)
	}
	return out
}

// Throughput returns the mean data rate in bytes/second achieved by the
// given points over their time span (first start to last start plus nothing:
// callers wanting exact spans should pass an explicit makespan).
func Throughput(pts []Point, span sim.Time) float64 {
	if span <= 0 {
		return 0
	}
	var bytes int64
	for _, p := range pts {
		bytes += p.Y
	}
	return float64(bytes) / span.Seconds()
}
