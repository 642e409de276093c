package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenRuns is the flag matrix testdata/<name>.golden pins: every flag
// group at small scale, so a change to how any flag reaches the study shows
// up as a changed report.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"escat", []string{"-app", "escat", "-small"}},
	{"render", []string{"-app", "render", "-small"}},
	{"htf", []string{"-app", "htf", "-small"}},
	{"window", []string{"-app", "htf", "-small", "-window", "5"}},
	{"ppfs", []string{"-small", "-policy", "ppfs"}},
	{"adaptive", []string{"-small", "-policy", "adaptive"}},
	{"htf-ppfs", []string{"-app", "htf", "-small", "-policy", "ppfs"}},
	{"htf-adaptive", []string{"-app", "htf", "-small", "-policy", "adaptive"}},
	{"cache", []string{"-small", "-cache", "-cache-mb", "4", "-prefetch=false"}},
	{"collective", []string{"-small", "-collective", "-aggregators", "2", "-sched", "cscan"}},
	{"burst", []string{"-small", "-burst", "-burst-mb", "32", "-compress", "1"}},
	{"burst-drain", []string{"-app", "htf", "-small", "-burst", "-burst-drain", "4"}},
	{"mtbf", []string{"-small", "-mtbf", "2", "-outage", "1", "-seed", "3"}},
	{"mtbf-window", []string{"-small", "-mtbf", "1", "-outage", "0.5", "-chaos-window", "3", "-seed", "5"}},
	{"corrupt", []string{"-small", "-corrupt", "all", "-scrub", "-deadline", "0.5", "-retries", "3", "-seed", "11"}},
	{"scrub", []string{"-app", "htf", "-small", "-scrub", "-chaos-window", "4"}},
	{"deadline", []string{"-small", "-deadline", "2"}},
	{"rf2", []string{"-small", "-rf", "2"}},
	{"rf2-placement", []string{"-small", "-rf", "2", "-placement-seed", "3", "-read-policy", "any-replica", "-mtbf", "4", "-outage", "0.5", "-seed", "3"}},
	{"rf3-repair", []string{"-small", "-rf", "3", "-repair", "-repair-mb-s", "8", "-mtbf", "2", "-seed", "3"}},
	{"rf3-repair-unthrottled", []string{"-small", "-rf", "3", "-repair", "-repair-mb-s", "0", "-repair-give-up", "5", "-mtbf", "2", "-seed", "3"}},
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
