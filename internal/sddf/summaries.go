package sddf

import (
	"io"

	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
)

// Descriptor tags for Pablo reduction records. Tag 1 is the raw event
// record (EventTag).
const (
	LifetimeTag = 2
	WindowTag   = 3
	RegionTag   = 4
)

// LifetimeDescriptor returns the SDDF layout of a file-lifetime summary
// record: per-operation counts and durations plus byte totals and open time.
func LifetimeDescriptor() Descriptor {
	d := Descriptor{Tag: LifetimeTag, Name: "file-lifetime-summary"}
	d.Fields = append(d.Fields, Field{Name: "file", Type: TInt32})
	for op := 0; op < iotrace.NumOps; op++ {
		name := iotrace.Op(op).String()
		d.Fields = append(d.Fields,
			Field{Name: "count_" + name, Type: TInt64},
			Field{Name: "us_" + name, Type: TInt64},
		)
	}
	d.Fields = append(d.Fields,
		Field{Name: "bytes_read", Type: TInt64},
		Field{Name: "bytes_written", Type: TInt64},
		Field{Name: "open_us", Type: TInt64},
	)
	return d
}

// LifetimeRecord converts one file's lifetime summary to a record. end is
// the run's final time (for still-open files).
func LifetimeRecord(f *pablo.FileLifetime, end sim.Time) Record {
	values := []any{int32(f.File)}
	for op := 0; op < iotrace.NumOps; op++ {
		values = append(values, f.Count[op], int64(f.Duration[op]))
	}
	values = append(values, f.BytesRead, f.BytesWritten, int64(f.FinalOpenTime(end)))
	return Record{Tag: LifetimeTag, Values: values}
}

// WindowDescriptor returns the SDDF layout of a time-window summary record.
func WindowDescriptor() Descriptor {
	d := Descriptor{Tag: WindowTag, Name: "time-window-summary"}
	d.Fields = append(d.Fields,
		Field{Name: "window", Type: TInt64},
		Field{Name: "width_us", Type: TInt64},
	)
	for op := 0; op < iotrace.NumOps; op++ {
		name := iotrace.Op(op).String()
		d.Fields = append(d.Fields,
			Field{Name: "count_" + name, Type: TInt64},
			Field{Name: "us_" + name, Type: TInt64},
			Field{Name: "bytes_" + name, Type: TInt64},
		)
	}
	return d
}

// WindowRecord converts one window summary to a record.
func WindowRecord(w *pablo.WindowSummary, width sim.Time) Record {
	values := []any{w.Index, int64(width)}
	for op := 0; op < iotrace.NumOps; op++ {
		values = append(values, w.Count[op], int64(w.Duration[op]), w.Bytes[op])
	}
	return Record{Tag: WindowTag, Values: values}
}

// RegionDescriptor returns the SDDF layout of a file-region summary record.
func RegionDescriptor() Descriptor {
	return Descriptor{
		Tag: RegionTag, Name: "file-region-summary",
		Fields: []Field{
			{Name: "file", Type: TInt32},
			{Name: "region", Type: TInt64},
			{Name: "size", Type: TInt64},
			{Name: "reads", Type: TInt64},
			{Name: "writes", Type: TInt64},
			{Name: "bytes", Type: TInt64},
		},
	}
}

// RegionRecord converts one region summary to a record.
func RegionRecord(r *pablo.RegionSummary, size int64) Record {
	return Record{Tag: RegionTag, Values: []any{
		int32(r.File), r.Index, size, r.Reads, r.Writes, r.Bytes,
	}}
}

// WriteSummaries encodes any combination of Pablo reductions (nil arguments
// are skipped) into one SDDF stream. end stamps open times of still-open
// files.
func WriteSummaries(w io.Writer, ascii bool,
	lt *pablo.LifetimeReducer, win *pablo.WindowReducer, reg *pablo.RegionReducer,
	end sim.Time) error {
	tw, err := newWriter(w, ascii)
	if err != nil {
		return err
	}
	if lt != nil {
		if err := tw.WriteDescriptor(LifetimeDescriptor()); err != nil {
			return err
		}
		for _, f := range lt.Files() {
			if err := tw.WriteRecord(LifetimeRecord(f, end)); err != nil {
				return err
			}
		}
	}
	if win != nil {
		if err := tw.WriteDescriptor(WindowDescriptor()); err != nil {
			return err
		}
		for _, s := range win.Windows() {
			if err := tw.WriteRecord(WindowRecord(s, win.Width())); err != nil {
				return err
			}
		}
	}
	if reg != nil {
		if err := tw.WriteDescriptor(RegionDescriptor()); err != nil {
			return err
		}
		for _, s := range reg.Regions() {
			if err := tw.WriteRecord(RegionRecord(s, reg.Size())); err != nil {
				return err
			}
		}
	}
	return tw.Flush()
}

// SummaryCounts tallies the records of each summary kind in a stream
// written by WriteSummaries.
type SummaryCounts struct {
	Lifetimes int
	Windows   int
	Regions   int
}

// CountSummaries decodes a summary stream and tallies it (validating every
// record against its descriptor on the way).
func CountSummaries(r io.Reader) (SummaryCounts, error) {
	tr, err := newReader(r)
	if err != nil {
		return SummaryCounts{}, err
	}
	var c SummaryCounts
	for {
		item, err := tr.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		rec, ok := item.(Record)
		if !ok {
			continue
		}
		switch rec.Tag {
		case LifetimeTag:
			c.Lifetimes++
		case WindowTag:
			c.Windows++
		case RegionTag:
			c.Regions++
		}
	}
}
