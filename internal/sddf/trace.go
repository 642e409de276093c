package sddf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// EventTag is the descriptor tag used for I/O trace event records.
const EventTag = 1

// eventName and eventFields are the canonical io-event layout.
const eventName = "io-event"

var eventFields = []Field{
	{Name: "seq", Type: TInt64},
	{Name: "node", Type: TInt32},
	{Name: "op", Type: TInt32},
	{Name: "file", Type: TInt32},
	{Name: "offset", Type: TInt64},
	{Name: "bytes", Type: TInt64},
	{Name: "start_us", Type: TInt64},
	{Name: "end_us", Type: TInt64},
	{Name: "mode", Type: TInt32},
	{Name: "phase", Type: TString},
}

// EventDescriptor returns the canonical SDDF descriptor for iotrace.Event.
func EventDescriptor() Descriptor {
	return Descriptor{Tag: EventTag, Name: eventName, Fields: slices.Clone(eventFields)}
}

// checkEventDescriptor holds a stream's tag-EventTag descriptor to the
// canonical layout, so every record under it decodes into an Event. Readers
// check it once, when the descriptor arrives.
func checkEventDescriptor(d Descriptor) error {
	if d.Name != eventName {
		return fmt.Errorf("%w: descriptor %d is named %q, want %q", ErrBadFormat, EventTag, d.Name, eventName)
	}
	if len(d.Fields) != len(eventFields) {
		return fmt.Errorf("%w: %s descriptor has %d fields, want %d", ErrBadFormat, eventName, len(d.Fields), len(eventFields))
	}
	for i, f := range d.Fields {
		if want := eventFields[i]; f != want {
			return fmt.Errorf("%w: %s descriptor field %d is %q %v, want %q %v",
				ErrBadFormat, eventName, i, f.Name, f.Type, want.Name, want.Type)
		}
	}
	return nil
}

// EventRecord converts an event into an SDDF record.
func EventRecord(e iotrace.Event) Record {
	return Record{
		Tag: EventTag,
		Values: []any{
			e.Seq, int32(e.Node), int32(e.Op), int32(e.File),
			e.Offset, e.Bytes, int64(e.Start), int64(e.End),
			int32(e.Mode), e.Phase,
		},
	}
}

// RecordEvent converts an io-event SDDF record back into an event.
func RecordEvent(r Record) (iotrace.Event, error) {
	if r.Tag != EventTag {
		return iotrace.Event{}, fmt.Errorf("%w: not an io-event record", ErrBadFormat)
	}
	if err := validate(Descriptor{Name: eventName, Fields: eventFields}, r); err != nil {
		return iotrace.Event{}, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	e := iotrace.Event{
		Seq:    r.Values[0].(int64),
		Node:   int(r.Values[1].(int32)),
		Op:     iotrace.Op(r.Values[2].(int32)),
		File:   iotrace.FileID(r.Values[3].(int32)),
		Offset: r.Values[4].(int64),
		Bytes:  r.Values[5].(int64),
		Start:  sim.Time(r.Values[6].(int64)),
		End:    sim.Time(r.Values[7].(int64)),
		Mode:   iotrace.AccessMode(r.Values[8].(int32)),
		Phase:  r.Values[9].(string),
	}
	return e, checkEvent(e)
}

// checkEvent rejects an event whose op or mode is out of range.
func checkEvent(e iotrace.Event) error {
	if !e.Op.Valid() {
		return fmt.Errorf("%w: invalid op %d", ErrBadFormat, int(e.Op))
	}
	if !e.Mode.Valid() {
		return fmt.Errorf("%w: invalid mode %d", ErrBadFormat, int(e.Mode))
	}
	return nil
}

// traceWriter is the common surface of BinaryWriter and ASCIIWriter.
type traceWriter interface {
	WriteDescriptor(Descriptor) error
	WriteRecord(Record) error
	Flush() error
}

// newWriter returns the binary (ascii=false) or ASCII (ascii=true) writer.
func newWriter(w io.Writer, ascii bool) (traceWriter, error) {
	if ascii {
		return NewASCIIWriter(w)
	}
	return NewBinaryWriter(w)
}

// WriteTrace encodes a full event trace — descriptor first, then one record
// per event — in binary (ascii=false) or ASCII (ascii=true) form.
func WriteTrace(w io.Writer, events []iotrace.Event, ascii bool) error {
	tw, err := newWriter(w, ascii)
	if err != nil {
		return err
	}
	if err := tw.WriteDescriptor(EventDescriptor()); err != nil {
		return err
	}
	write := func(e iotrace.Event) error { return tw.WriteRecord(EventRecord(e)) }
	if bw, ok := tw.(*BinaryWriter); ok {
		write = bw.writeEvent
	}
	for _, e := range events {
		if err := write(e); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// writeEvent emits one io-event record: the bytes WriteRecord(EventRecord(e))
// emits, without boxing the fields. The stream's EventTag descriptor must be
// the canonical one.
func (bw *BinaryWriter) writeEvent(e iotrace.Event) error {
	buf := bw.begin()
	buf = binary.AppendUvarint(buf, EventTag)
	buf = binary.AppendVarint(buf, e.Seq)
	buf = binary.AppendVarint(buf, int64(int32(e.Node)))
	buf = binary.AppendVarint(buf, int64(int32(e.Op)))
	buf = binary.AppendVarint(buf, int64(int32(e.File)))
	buf = binary.AppendVarint(buf, e.Offset)
	buf = binary.AppendVarint(buf, e.Bytes)
	buf = binary.AppendVarint(buf, int64(e.Start))
	buf = binary.AppendVarint(buf, int64(e.End))
	buf = binary.AppendVarint(buf, int64(int32(e.Mode)))
	buf = appendString(buf, e.Phase)
	return bw.emit(packetRecord, buf)
}

// traceReader is the common surface of BinaryReader and ASCIIReader.
type traceReader interface {
	Next() (any, error)
}

// newReader sniffs the encoding from the stream header — binary streams
// start with 'S', ASCII with '#' — and returns the matching reader.
func newReader(r io.Reader) (traceReader, error) {
	b := bufio.NewReader(r)
	first, err := b.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("%w: empty stream", ErrBadFormat)
	}
	if first[0] == '#' {
		return NewASCIIReader(b)
	}
	return NewBinaryReader(b)
}

// ReadTrace decodes a trace written by WriteTrace, auto-detecting the
// encoding from the stream header. A stream whose EventTag descriptor is not
// the canonical io-event layout is rejected.
func ReadTrace(r io.Reader) ([]iotrace.Event, error) {
	size := 0
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len()
	}
	tr, err := newReader(r)
	if err != nil {
		return nil, err
	}
	if br, ok := tr.(*BinaryReader); ok {
		return br.readEvents(size)
	}
	return readRecordEvents(tr)
}

// readRecordEvents is the generic decoding path: every item through Next,
// every record through RecordEvent.
func readRecordEvents(tr traceReader) ([]iotrace.Event, error) {
	var events []iotrace.Event
	for {
		item, err := tr.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		switch x := item.(type) {
		case Descriptor:
			if x.Tag == EventTag {
				if err := checkEventDescriptor(x); err != nil {
					return nil, err
				}
			}
		case Record:
			e, err := RecordEvent(x)
			if err != nil {
				return nil, err
			}
			events = append(events, e)
		}
	}
}

// readEvents decodes the rest of a binary stream as an event trace, taking
// io-event records straight from bytes into events. size, when positive, is
// the stream's length in bytes; the event slice is sized from it and the
// first record's length.
func (br *BinaryReader) readEvents(size int) ([]iotrace.Event, error) {
	var events []iotrace.Event
	phases := make(map[string]string) // interned phase labels
	for {
		kind, payload, err := br.readPacket()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		switch kind {
		case packetDescriptor:
			d, err := br.decodeDescriptor(payload)
			if err != nil {
				return nil, err
			}
			if d.Tag == EventTag {
				if err := checkEventDescriptor(d); err != nil {
					return nil, err
				}
			}
		case packetRecord:
			e, err := br.decodeEvent(payload, phases)
			if err != nil {
				return nil, err
			}
			if events == nil && size > 0 {
				events = make([]iotrace.Event, 0, size/(headerLen+len(payload))+1)
			}
			events = append(events, e)
		default:
			return nil, errPacketKind(kind)
		}
	}
}

// decodeEvent decodes one record packet as an io-event: the event
// decodeRecord and RecordEvent would produce, or an error where they would
// fail. phases interns the phase labels.
func (br *BinaryReader) decodeEvent(payload []byte, phases map[string]string) (iotrace.Event, error) {
	c := byteCursor{buf: payload}
	tag, err := c.uvarint()
	if err != nil {
		return iotrace.Event{}, err
	}
	if _, ok := br.descs[int(tag)]; !ok {
		return iotrace.Event{}, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	if int(tag) != EventTag {
		return iotrace.Event{}, fmt.Errorf("%w: not an io-event record", ErrBadFormat)
	}
	var v [9]int64 // the fields before phase, in descriptor order
	for i := range v {
		if v[i], err = c.varint(); err != nil {
			return iotrace.Event{}, err
		}
	}
	phase, err := c.bytes()
	if err != nil {
		return iotrace.Event{}, err
	}
	e := iotrace.Event{
		Seq:    v[0],
		Node:   int(int32(v[1])),
		Op:     iotrace.Op(int32(v[2])),
		File:   iotrace.FileID(int32(v[3])),
		Offset: v[4],
		Bytes:  v[5],
		Start:  sim.Time(v[6]),
		End:    sim.Time(v[7]),
		Mode:   iotrace.AccessMode(int32(v[8])),
		Phase:  intern(phases, phase),
	}
	return e, checkEvent(e)
}

// intern returns the one string for b's contents, adding it on first sight.
func intern(seen map[string]string, b []byte) string {
	if s, ok := seen[string(b)]; ok {
		return s
	}
	s := string(b)
	seen[s] = s
	return s
}
