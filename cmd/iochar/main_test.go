package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSmokeSmallRunDeterministic(t *testing.T) {
	capture := func() string {
		var buf bytes.Buffer
		if err := run([]string{"-app", "escat", "-small"}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := capture(), capture()
	if a == "" {
		t.Fatal("no output")
	}
	if a != b {
		t.Error("two identical runs produced different output")
	}
	for _, want := range []string{"escat: wall clock", "I/O operations", "File lifetime summary"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSmokeChaosRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-app", "escat", "-small", "-mtbf", "3", "-outage", "0.5", "-seed", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Resilience report:") {
		t.Errorf("chaos run printed no resilience report:\n%.400s", buf.String())
	}
}

func TestSmokeBadPolicy(t *testing.T) {
	if err := run([]string{"-small", "-policy", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestSmokeIOShardsRemoved: the intra-machine split and its -ioshards flag
// are gone, so the flag is an ordinary unknown-flag error, not a panic.
func TestSmokeIOShardsRemoved(t *testing.T) {
	err := run([]string{"-app", "escat", "-small", "-ioshards", "2"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "ioshards") {
		t.Fatalf("-ioshards 2: got err %v, want an unknown-flag error", err)
	}
}

// capture runs the CLI with args and returns its full output.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sections returns the first line of every report section (lines ending in
// a colon plus the table headers), the schema the cache flag must not alter.
func sections(out string) []string {
	var heads []string
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasSuffix(trimmed, ":") && !strings.Contains(trimmed, " -> ") {
			heads = append(heads, trimmed)
		}
	}
	return heads
}

func TestSmokeCacheFlagAddsStatsKeepsSchema(t *testing.T) {
	off := capture(t, "-app", "escat", "-small")
	on := capture(t, "-app", "escat", "-small", "-cache")

	if strings.Contains(off, "Cache effectiveness:") {
		t.Error("uncached run printed a cache report")
	}
	if !strings.Contains(on, "Cache effectiveness:") {
		t.Error("cached run printed no cache report")
	}
	// Apart from the added cache section, the report schema is identical.
	offHeads := sections(off)
	var onHeads []string
	for _, h := range sections(on) {
		if h == "Cache effectiveness:" || h == "per node:" {
			continue
		}
		onHeads = append(onHeads, h)
	}
	if strings.Join(offHeads, "\n") != strings.Join(onHeads, "\n") {
		t.Errorf("cache flag changed the report sections:\noff: %v\non:  %v", offHeads, onHeads)
	}
}

func TestSmokeCachedRunsByteIdentical(t *testing.T) {
	args := []string{"-app", "htf", "-small", "-cache", "-cache-mb", "4"}
	a := capture(t, args...)
	b := capture(t, args...)
	if a == "" {
		t.Fatal("no output")
	}
	if a != b {
		t.Error("two identical cached runs produced different output")
	}
}

func TestSmokeCacheNoPrefetch(t *testing.T) {
	out := capture(t, "-app", "escat", "-small", "-cache", "-prefetch=false")
	if !strings.Contains(out, "Cache effectiveness:") {
		t.Fatal("no cache report")
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "prefetch") && strings.Contains(line, "issued") {
			if !strings.Contains(line, "0 issued") {
				t.Errorf("prefetch disabled but line says %q", strings.TrimSpace(line))
			}
		}
	}
}
