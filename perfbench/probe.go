package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pablo"
	"repro/internal/sddf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// probeReps is how many times each replay probe repeats; it reports the
// median repetition.
const probeReps = 7

// captureReports runs each paper application once, with its trace kept, to
// feed the replay probes.
func captureReports() ([]*core.Report, error) {
	var out []*core.Report
	for _, app := range core.Apps() {
		r, err := core.Run(core.PaperStudy(app))
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", app, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// replayProbes times single layers on the captured traces, outside the
// engine: Pablo capture, the SDDF codec, the summary analyses, figure
// extraction, machine construction and scenario loading.
func replayProbes(reports []*core.Report, sp *spans) (map[string]float64, error) {
	id := sp.begin("replay")
	defer sp.end(id)

	var events int
	for _, r := range reports {
		events += len(r.Events)
	}
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(events) }

	record := medianRun(sp, "replay.pablo", func() error {
		for _, r := range reports {
			tr := pablo.NewTracer(true)
			tr.Attach(pablo.NewLifetimeReducer())
			tr.Attach(pablo.NewWindowReducer(10 * sim.Second))
			for _, e := range r.Events {
				tr.Record(e)
			}
		}
		return nil
	})

	encoded := make([][]byte, len(reports))
	var encodedBytes int
	write := medianRun(sp, "replay.sddf_write", func() error {
		encodedBytes = 0
		for i, r := range reports {
			var buf bytes.Buffer
			if err := sddf.WriteTrace(&buf, r.Events, false); err != nil {
				return err
			}
			encoded[i] = buf.Bytes()
			encodedBytes += buf.Len()
		}
		return nil
	})
	read := medianRun(sp, "replay.sddf_read", func() error {
		for _, enc := range encoded {
			if _, err := sddf.ReadTrace(bytes.NewReader(enc)); err != nil {
				return err
			}
		}
		return nil
	})
	summarize := medianRun(sp, "replay.summarize", func() error {
		for _, r := range reports {
			analysis.Summarize(r.Events)
			analysis.Sizes(r.Events)
		}
		return nil
	})
	figures := medianRun(sp, "replay.figures", func() error {
		for _, r := range reports {
			r.Figures()
		}
		return nil
	})
	build := medianRun(sp, "replay.machine", func() error {
		for _, app := range core.Apps() {
			if _, err := workload.NewMachine(core.PaperStudy(app).Machine); err != nil {
				return err
			}
		}
		return nil
	})
	load := medianRun(sp, "replay.scenario_load", func() error {
		_, err := loadCorpus(defaultSeed)
		return err
	})
	for _, p := range []probeResult{record, write, read, summarize, figures, build, load} {
		if p.err != nil {
			return nil, p.err
		}
	}
	return map[string]float64{
		"pablo.record_ns_per_event":       perEvent(record.d),
		"sddf.write_ns_per_event":         perEvent(write.d),
		"sddf.read_ns_per_event":          perEvent(read.d),
		"sddf.bytes_per_event":            float64(encodedBytes) / float64(events),
		"analysis.summarize_ns_per_event": perEvent(summarize.d),
		"analysis.figures_s":              figures.d.Seconds(),
		"workload.machine_build_ms":       float64(build.d.Nanoseconds()) / 1e6 / float64(len(core.Apps())),
		"scenario.load_ms":                float64(load.d.Nanoseconds()) / 1e6,
	}, nil
}

type probeResult struct {
	d   time.Duration
	err error
}

// medianRun times fn probeReps times under one span and returns the median.
func medianRun(sp *spans, name string, fn func() error) probeResult {
	id := sp.begin(name)
	defer sp.end(id)
	ds := make([]float64, probeReps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return probeResult{err: fmt.Errorf("%s: %w", name, err)}
		}
		ds[i] = float64(time.Since(t0))
	}
	return probeResult{d: time.Duration(median(ds))}
}
