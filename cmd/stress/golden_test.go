package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenRuns is the flag matrix testdata/<name>.golden pins: every built-in
// plan and every flag group at small scale, so a change to how any flag
// reaches the study shows up as a changed report.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"none", []string{"-scenario", "none", "-seed", "7"}},
	{"outage", []string{"-scenario", "outage", "-seed", "7"}},
	{"disks", []string{"-scenario", "disks", "-seed", "7"}},
	{"storm", []string{"-scenario", "storm", "-seed", "7"}},
	{"mixed", []string{"-scenario", "mixed", "-seed", "7"}},
	{"htf-storm", []string{"-app", "htf", "-scenario", "storm", "-seed", "2"}},
	{"render-outage", []string{"-app", "render", "-scenario", "outage", "-ckpt-interval", "0"}},
	{"paper-none", []string{"-small=false", "-scenario", "none"}},
	{"failover-off", []string{"-failover=false"}},
	{"replicate-off", []string{"-replicate=false"}},
	{"failover-off-rf2", []string{"-failover=false", "-rf", "2", "-seed", "7"}},
	{"config", []string{"-config", filepath.Join("testdata", "chaos.json"), "-seed", "3"}},
	{"sweep", []string{"-scenario", "outage", "-seed", "7", "-failover=false", "-sweep", "0,2"}},
	{"ckpt", []string{"-failover=false", "-ckpt-interval", "1", "-ckpt-bytes", "8192", "-restart-cost", "0.5", "-max-attempts", "3", "-seed", "7"}},
	{"ckpt-off", []string{"-failover=false", "-ckpt-interval", "0", "-seed", "7"}},
	{"cache", []string{"-cache", "-flush-on-fail"}},
	{"cache-mb", []string{"-scenario", "none", "-cache", "-cache-mb", "4", "-prefetch=false"}},
	{"collective", []string{"-scenario", "none", "-collective", "-aggregators", "2", "-sched", "cscan"}},
	{"burst", []string{"-burst", "-compress", "2.0"}},
	{"burst-mb", []string{"-scenario", "none", "-burst", "-burst-mb", "32", "-burst-drain", "4", "-compress", "1"}},
	{"corrupt", []string{"-corrupt", "all", "-scrub", "-seed", "11"}},
	{"corrupt-window", []string{"-scenario", "none", "-corrupt", "bit-rot", "-chaos-window", "3", "-seed", "11"}},
	{"reliability", []string{"-scenario", "none", "-deadline", "0.5", "-retries", "4"}},
	{"rf3-repair", []string{"-rf", "3", "-repair", "-repair-mb-s", "0", "-seed", "7"}},
	{"rf3-repair-throttled", []string{"-rf", "3", "-repair", "-repair-mb-s", "8", "-repair-give-up", "2", "-placement-seed", "5", "-read-policy", "quorum", "-seed", "7"}},
}

func TestGoldenFlagRuns(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			checkGolden(t, g.name+".golden", capture(t, g.args...))
		})
	}
}

// checkGolden compares a run's output with testdata/<name>; -update rewrites
// the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
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
