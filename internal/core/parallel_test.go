package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/burst"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/exec"
	"repro/internal/integrity"
)

// renderAllSweeps runs every executor-backed sweep and renders the reports
// into one text blob, so a byte comparison covers rows, ordering, and
// formatting at once.
func renderAllSweeps(t *testing.T) string {
	t.Helper()
	var out string

	cacheRows, err := CacheSweep(true, cache.DefaultConfig())
	if err != nil {
		t.Fatalf("CacheSweep: %v", err)
	}
	out += analysis.RenderCacheSweep("Cache sweep:", cacheRows)

	modeRows, err := ModeCacheSweep(cache.DefaultConfig())
	if err != nil {
		t.Fatalf("ModeCacheSweep: %v", err)
	}
	out += analysis.RenderCacheSweep("Mode cache sweep:", modeRows)

	burstRows, err := BurstSweep(true, ckpt.Config{Interval: 1, BytesPerNode: 1 << 20}, burst.DefaultConfig())
	if err != nil {
		t.Fatalf("BurstSweep: %v", err)
	}
	out += analysis.RenderBurstSweep("Burst sweep:", burstRows)

	corrRows, err := CorruptionSweep(true, 11)
	if err != nil {
		t.Fatalf("CorruptionSweep: %v", err)
	}
	out += analysis.RenderCorruptionSweep(corrRows)

	integRows, err := ModeIntegritySweep(integrity.DefaultConfig())
	if err != nil {
		t.Fatalf("ModeIntegritySweep: %v", err)
	}
	out += analysis.RenderIntegrityOverhead(integRows)

	scalePts, err := ESCATScaling([]int{4, 8}, 4)
	if err != nil {
		t.Fatalf("ESCATScaling: %v", err)
	}
	out += RenderScaling(scalePts)

	out += RenderSweep(DefaultCrossoverModel().Sweep([]float64{1e6, 3e6, 5.6e6, 10e6}))

	tradePts, err := TradeoffSweep(chaosStudy(), []int{0, 2})
	if err != nil {
		t.Fatalf("TradeoffSweep: %v", err)
	}
	out += analysis.RenderTradeoff(tradePts)

	return out
}

// Every sweep must render byte-identically at any worker count: results are
// delivered by submission index and each run builds all of its own state, so
// -parallel only changes wall-clock time, never output. This is the
// executor's core guarantee; run the suite with -race to also prove the
// concurrent runs share no mutable state.
func TestSweepsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	defer exec.SetWorkers(0)

	exec.SetWorkers(1)
	sequential := renderAllSweeps(t)
	exec.SetWorkers(8)
	parallel := renderAllSweeps(t)

	if sequential != parallel {
		t.Fatalf("sweep output differs between -parallel=1 and -parallel=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	if len(sequential) == 0 {
		t.Fatal("sweeps rendered nothing")
	}
	checkGolden(t, "sweeps.golden", sequential)
}

// checkGolden compares rendered sweep text with the checked-in
// testdata/<name>, so a change to any row, figure or format fails here — not
// only a difference between worker counts. A deliberate model change
// rewrites the file from the new render.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got: %q\nwant: %q", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines rendered, golden has %d", name, len(gl), len(wl))
}
