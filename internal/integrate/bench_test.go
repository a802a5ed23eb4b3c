package integrate_test

import (
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/experiments"
	"tspsz/internal/integrate"
)

// BenchmarkTraceWindow3D traces every separatrix of a 14³ window of the
// 18³ Nek5000 field with involved-vertex recording, at the nek5000
// experiment's integration parameters. points keeps every trajectory, as
// TraceSeparatrices does; record is the tracing TspSZ-I runs on each window
// of the nek3d-1 benchmark workload, RecordSeparatricesOf per saddle, which
// keeps no points. ns/step is the time per RK4 step, stage samples and
// absorption probe included; both traces take the same steps.
func BenchmarkTraceWindow3D(b *testing.B) {
	cfg, err := experiments.Config("nek5000", experiments.DefaultScale)
	if err != nil {
		b.Fatal(err)
	}
	f := integrate.NekWindow(14)
	cps := critical.Extract(f)
	loc := integrate.NewCPLocator(cps)
	steps := 0
	for _, tr := range integrate.TraceSeparatrices(f, cps, cfg.Params, nil) {
		steps += len(tr.Points) - 1
	}
	var verts []int
	run := func(name string, trace func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				verts = verts[:0]
				trace()
			}
			if steps > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
			}
		})
	}
	run("points", func() { integrate.TraceSeparatrices(f, cps, cfg.Params, &verts) })
	run("record", func() {
		for ci := range cps {
			integrate.RecordSeparatricesOf(f, cps, loc, ci, cfg.Params, &verts)
		}
	})
}
