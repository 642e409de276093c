package sddf

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iotrace"
)

// recordPathBytes encodes events the generic way: one WriteRecord of an
// EventRecord per event.
func recordPathBytes(t testing.TB, events []iotrace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteDescriptor(EventDescriptor()); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := bw.WriteRecord(EventRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func extremeEvents() []iotrace.Event {
	return append(sampleEvents(),
		iotrace.Event{Seq: math.MaxInt64, Node: math.MaxInt32, Op: iotrace.OpFlush, File: math.MaxInt32,
			Offset: math.MaxInt64, Bytes: math.MinInt64, Start: -1, End: math.MaxInt64,
			Mode: iotrace.ModeAsync, Phase: strings.Repeat("p", 300)},
		iotrace.Event{Seq: -7, Node: -3, Op: iotrace.OpRead, File: -1, Phase: ""},
	)
}

func TestWriteTraceMatchesRecordPath(t *testing.T) {
	events := extremeEvents()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events, false); err != nil {
		t.Fatal(err)
	}
	if want := recordPathBytes(t, events); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteTrace bytes differ from the WriteRecord(EventRecord) path:\n got %x\nwant %x", buf.Bytes(), want)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, events) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, events)
	}
}

// TestAppTracesMatchRecordPath holds the direct io-event coder to the generic
// one on every application's real trace.
func TestAppTracesMatchRecordPath(t *testing.T) {
	for _, app := range core.Apps() {
		r, err := core.Run(core.SmallStudy(app))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteTrace(&got, r.Events, false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), recordPathBytes(t, r.Events)) {
			t.Fatalf("%s: WriteTrace bytes differ from the WriteRecord(EventRecord) path", app)
		}
		back, err := ReadTrace(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back, r.Events) {
			t.Fatalf("%s: ReadTrace did not give the trace back", app)
		}
	}
}

// mistypedStream is a binary stream whose io-event descriptor declares seq
// a string, with one record that follows that declaration.
func mistypedStream(t testing.TB) []byte {
	t.Helper()
	d := EventDescriptor()
	d.Fields[0].Type = TString
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	if err := bw.WriteDescriptor(d); err != nil {
		t.Fatal(err)
	}
	r := EventRecord(sampleEvents()[0])
	r.Values[0] = "seq as text"
	if err := bw.WriteRecord(r); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes()
}

func TestReadTraceRejectsNonCanonicalDescriptor(t *testing.T) {
	ascii := "#SDDFA 1\n" +
		"#D 1 \"io-event\" seq:int64,node:int32,op:int32,file:int32,offset:int64,bytes:int64," +
		"start_us:int64,end_us:int64,mode:string,phase:string\n"
	renamed := EventDescriptor()
	renamed.Name = "other"
	var short bytes.Buffer
	bw, _ := NewBinaryWriter(&short)
	bw.WriteDescriptor(Descriptor{Tag: EventTag, Name: eventName, Fields: eventFields[:3]})
	bw.Flush()
	var named bytes.Buffer
	bw, _ = NewBinaryWriter(&named)
	bw.WriteDescriptor(renamed)
	bw.Flush()

	for _, c := range []struct {
		name, stream, want string
	}{
		{"binary mistyped", string(mistypedStream(t)), `"seq"`},
		{"ascii mistyped", ascii, `"mode"`},
		{"binary short", short.String(), "3 fields"},
		{"binary renamed", named.String(), `"other"`},
	} {
		_, err := ReadTrace(strings.NewReader(c.stream))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want ErrBadFormat naming %s", c.name, err, c.want)
		}
	}
}

func TestRecordEventRejectsMistypedValues(t *testing.T) {
	for i := range eventFields {
		r := EventRecord(sampleEvents()[1])
		r.Values[i] = 1.5
		_, err := RecordEvent(r)
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), `"`+eventFields[i].Name+`"`) {
			t.Errorf("field %d: got %v, want ErrBadFormat naming %q", i, err, eventFields[i].Name)
		}
	}
}

func TestReadTraceRejectsForeignRecords(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.WriteDescriptor(EventDescriptor())
	bw.WriteDescriptor(sampleDescriptor())
	bw.WriteRecord(sampleRecord())
	bw.Flush()
	if _, err := ReadTrace(&buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("record of another descriptor accepted: %v", err)
	}
}

// readGeneric decodes data through the generic path, whatever its encoding.
func readGeneric(data []byte) ([]iotrace.Event, error) {
	tr, err := newReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return readRecordEvents(tr)
}

// FuzzReadTrace holds ReadTrace to the generic decoding path and to its own
// writer. The seed corpus in testdata/fuzz/FuzzReadTrace holds valid binary
// and ASCII traces, a truncated packet, an oversized string and a mistyped
// io-event descriptor.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		generic, gerr := readGeneric(data)
		if (err == nil) != (gerr == nil) {
			t.Fatalf("direct and generic decoders disagree: %v vs %v", err, gerr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(events, generic) {
			t.Fatalf("direct and generic decoders disagree:\n%+v\n%+v", events, generic)
		}
		ascii := data[0] == '#'
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events, ascii); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-read of a written trace: %v", err)
		}
		if !slices.Equal(back, events) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", back, events)
		}
	})
}
