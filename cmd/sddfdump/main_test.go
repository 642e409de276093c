package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/sddf"
)

func TestSmokeDumpAndConvert(t *testing.T) {
	r, err := core.Run(core.SmallStudy(core.ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "escat.sddf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sddf.WriteTrace(f, r.Events, false); err != nil {
		t.Fatal(err)
	}
	f.Close()

	capture := func(args ...string) string {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	conv := filepath.Join(dir, "escat.ascii.sddf")
	a := capture("-events", "3", "-convert", conv, "-ascii", path)
	if a != capture("-events", "3", "-convert", conv, "-ascii", path) {
		t.Error("dump output nondeterministic")
	}
	for _, want := range []string{"Operation summary", "Request sizes", "node=", "converted to"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The converted ASCII file must round-trip.
	cf, err := os.Open(conv)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sddf.ReadTrace(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(r.Events) {
		t.Errorf("round-trip %d events, want %d", len(back), len(r.Events))
	}
}

func TestSmokeDumpUsage(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file argument accepted")
	}
}

func TestSmokeDumpRejectsMistypedTrace(t *testing.T) {
	d := sddf.EventDescriptor()
	d.Fields[0].Type = sddf.TString // seq
	r := sddf.EventRecord(iotrace.Event{Op: iotrace.OpRead, Mode: iotrace.ModeUnix})
	r.Values[0] = "not a number"
	var buf bytes.Buffer
	bw, _ := sddf.NewBinaryWriter(&buf)
	if err := bw.WriteDescriptor(d); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteRecord(r); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	path := filepath.Join(t.TempDir(), "mistyped.sddf")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{path}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `"seq"`) {
		t.Fatalf("mistyped trace: got %v, want an error naming field \"seq\"", err)
	}
}
