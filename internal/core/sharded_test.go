package core

import (
	"bytes"
	"strings"
	"testing"
)

// renderReport is everything a report prints: its JSON form and its tables.
func renderReport(t *testing.T, r *Report) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(strings.Join(r.Tables(), "\n"))
	return b.String()
}

// TestShardedMatchesSerialImage pins RunSharded's contract: whatever its
// options ask for, the study runs on the serial engine and renders byte for
// byte what Run renders.
func TestShardedMatchesSerialImage(t *testing.T) {
	for _, app := range Apps() {
		s := SmallStudy(app)
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := RunSharded(s, ShardedOptions{IOShards: 2, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderReport(t, sr.Report), renderReport(t, r); got != want {
			t.Errorf("%s: RunSharded renders differently from Run", app)
		}
		if sr.Fabric.Windows != 0 || sr.Fabric.Mail != 0 {
			t.Errorf("%s: RunSharded reports fabric activity %+v", app, sr.Fabric)
		}
	}
}
