package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkSingleMachinePaperScale runs one paper-scale study per iteration
// on the serial engine, for each of the paper's three traced applications.
func BenchmarkSingleMachinePaperScale(b *testing.B) {
	for _, app := range Apps() {
		s := PaperStudy(app)
		s.KeepTrace = false
		b.Run(fmt.Sprintf("app=%s/serial", app), func(b *testing.B) {
			b.ReportAllocs()
			var wall sim.Time
			for i := 0; i < b.N; i++ {
				r, err := Run(s)
				if err != nil {
					b.Fatal(err)
				}
				wall = r.Wall
			}
			b.ReportMetric(wall.Seconds(), "sim-wall-s")
		})
	}
}
