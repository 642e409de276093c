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
		{[]string{"-small", "-policy", "bogus"}, `workload.policy "bogus"`},
		{[]string{"-small", "-aggregators", "2"}, "features.collective.aggregators needs enabled: true"},
		{[]string{"-small", "-rf", "9"}, "features.failover.factor 9"},
		{[]string{"-small", "-read-policy", "bogus"}, `features.failover.read_policy "bogus"`},
		{[]string{"-small", "-repair"}, "features.failover: factor, read_policy and repair need enabled: true"},
		{[]string{"-small", "-mtbf", "2", "-outage", "-1"}, "chaos.exps[0]: times must be >= 0"},
		{[]string{"-small", "-corrupt", "bogus"}, "chaos.corrupt"},
		{[]string{"-small", "-burst", "-policy", "ppfs"}, "mutually exclusive"},
	}
	for _, tc := range cases {
		_, err := parse(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
