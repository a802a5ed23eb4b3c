package integrate_test

import (
	"testing"
	"time"

	"tspsz/internal/critical"
	"tspsz/internal/experiments"
	"tspsz/internal/integrate"
)

// BenchmarkTraceWindow3D traces every separatrix of a 14³ window of the
// 18³ Nek5000 field with involved-vertex recording, at the nek5000
// experiment's integration parameters: the tracing TspSZ-I runs on each
// window of the nek3d-1 benchmark workload. ns/step is the time per RK4
// step, stage samples and absorption probe included.
func BenchmarkTraceWindow3D(b *testing.B) {
	cfg, err := experiments.Config("nek5000", experiments.DefaultScale)
	if err != nil {
		b.Fatal(err)
	}
	f := integrate.NekWindow(14)
	cps := critical.Extract(f)
	var verts []int
	steps := 0
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		verts = verts[:0]
		for _, tr := range integrate.TraceSeparatrices(f, cps, cfg.Params, &verts) {
			steps += len(tr.Points) - 1
		}
	}
	if steps > 0 {
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(steps), "ns/step")
	}
}
