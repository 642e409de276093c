package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestScenarioFlagRunsHaveDSLSpelling: every golden flag run is a scenario
// the DSL can write down. Marshaled to JSON and parsed back, the flags'
// scenario builds the identical study, app configs included.
func TestScenarioFlagRunsHaveDSLSpelling(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			c, err := parse(g.args)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := c.sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(c.sc)
			if err != nil {
				t.Fatal(err)
			}
			back, err := scenario.Parse(doc, "")
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			got, _, err := back.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("study rebuilt from %s differs:\n got: %+v\nwant: %+v", doc, got, want)
			}
		})
	}
}

// TestScenarioFlagErrorsNameDSLKeys: bad flag values are rejected by the
// scenario validator, whose message names the DSL key the flag fills.
func TestScenarioFlagErrorsNameDSLKeys(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-app", "render"}, "run.ckpt_interval: render does not support checkpointing"},
		{[]string{"-ckpt-bytes", "-5"}, "run.ckpt_bytes -5 is negative"},
		{[]string{"-failover=false", "-read-policy", "quorum"}, "features.failover: factor, read_policy and repair need enabled: true"},
		{[]string{"-replicate=false", "-repair"}, "features.failover.repair needs replication"},
		{[]string{"-repair", "-repair-mb-s", "-1"}, "features.failover.repair.bandwidth_mb_s -1 is negative"},
		{[]string{"-cache", "-cache-mb", "-2"}, "features.cache.mb -2 is negative"},
		{[]string{"-sched", "bogus"}, "features.sched"},
	}
	for _, tc := range cases {
		_, err := parse(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
