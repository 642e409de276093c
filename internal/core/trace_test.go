package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps/htf"
	"repro/internal/iotrace"
	"repro/internal/workload"
)

func TestPhaseSplitMatchesFilterPhase(t *testing.T) {
	check := func(t *testing.T, r *Report) {
		t.Helper()
		phases := []string{"no-such-phase"}
		for _, e := range r.Events {
			if !slices.Contains(phases, e.Phase) {
				phases = append(phases, e.Phase)
			}
		}
		for _, ph := range phases {
			if got, want := r.phaseEvents(ph), analysis.FilterPhase(r.Events, ph); !slices.Equal(got, want) {
				t.Errorf("phase %q: split has %d events, FilterPhase %d", ph, len(got), len(want))
			}
		}
	}
	for _, app := range Apps() {
		t.Run(string(app), func(t *testing.T) {
			r, err := Run(SmallStudy(app))
			if err != nil {
				t.Fatal(err)
			}
			check(t, r)
		})
	}
	t.Run("interleaved", func(t *testing.T) {
		var events []iotrace.Event
		for i, ph := range []string{"a", "a", "b", "a", "c", "b", "b", "a"} {
			events = append(events, iotrace.Event{Seq: int64(i), Phase: ph})
		}
		check(t, &Report{Events: events})
	})
}

func TestPhaseQueriesConcurrent(t *testing.T) {
	r, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	var figs []Figure
	var sum analysis.OpSummary
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); figs = r.Figures() }()
	go func() { defer wg.Done(); sum = r.PhaseSummary(htf.PhasePscf) }()
	wg.Wait()
	if !reflect.DeepEqual(figs, serial.Figures()) {
		t.Error("concurrent Figures differ from a serial call")
	}
	if !reflect.DeepEqual(sum, serial.PhaseSummary(htf.PhasePscf)) {
		t.Error("concurrent PhaseSummary differs from a serial call")
	}
}

// TestTraceHintBoundsEvents holds every application's trace-size bound to
// its real trace, so an app change that outgrows the bound fails here rather
// than silently growing the capture buffer again.
func TestTraceHintBoundsEvents(t *testing.T) {
	for _, scale := range []struct {
		name  string
		study func(AppID) Study
	}{{"small", SmallStudy}, {"paper", PaperStudy}} {
		for _, app := range Apps() {
			t.Run(scale.name+"/"+string(app), func(t *testing.T) {
				s := scale.study(app)
				_, rt, err := prepare(s, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				hint := rt.app.(workload.TraceSizer).TraceEvents()
				r, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				n := len(r.Events)
				if hint < n || float64(hint) > 1.1*float64(n)+64 {
					t.Fatalf("hint %d for %d events", hint, n)
				}
				if cap(r.Events) != hint {
					t.Fatalf("capture buffer holds %d events, want the hint %d", cap(r.Events), hint)
				}
			})
		}
	}
}
