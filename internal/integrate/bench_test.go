package integrate_test

import (
	"testing"

	"tspsz/internal/critical"
	"tspsz/internal/datagen"
	"tspsz/internal/experiments"
	"tspsz/internal/integrate"
)

// BenchmarkTraceWindow3D traces every separatrix of a 14³ window of the
// 18³ Nek5000 field with involved-vertex recording, at the nek5000
// experiment's integration parameters. points keeps every trajectory, as
// TraceSeparatrices does; record is the tracing TspSZ-I runs on each window
// of the nek3d-1 benchmark workload, RecordSeparatricesOf per saddle, which
// keeps no points. ns/step is the time per RK4 step, stage samples and
// absorption included: the step's share of its streamline's slack, and the
// refresh and exact probe that about 1 step in 70 and 1 in 27,000 run;
// both traces take the same steps.
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

// BenchmarkTraceEveryStep traces streamlines whose slack covers about one
// step, so that nearly every step refreshes it and the refresh, not the
// per-step sum, is the absorption cost: one forward streamline from every
// fourth vertex of the cba field at its table parameters (h = 1, so a step
// is about as long as any slack), and of a small ocean field at the
// segmentation experiment's basin parameters (ε_p = 0.9, so every slack is
// below 0.1). ns/step as in BenchmarkTraceWindow3D.
func BenchmarkTraceEveryStep(b *testing.B) {
	cba, err := experiments.Config("cba", 1)
	if err != nil {
		b.Fatal(err)
	}
	basins := integrate.Params{EpsP: 0.9, MaxSteps: 1500, H: 0.1}
	for _, c := range []struct {
		name    string
		dataset string
		scale   float64
		par     integrate.Params
	}{
		{"cba-h1", "cba", 1, cba.Params},
		{"ocean-basins", "ocean", 0.03, basins},
	} {
		f, err := datagen.ByName(c.dataset, c.scale)
		if err != nil {
			b.Fatal(err)
		}
		loc := integrate.NewCPLocator(critical.Extract(f))
		nx, ny, nz := f.Grid.Dims()
		var seeds [][3]float64
		for k := 0; k < nz; k += 4 {
			for j := 0; j < ny; j += 4 {
				for i := 0; i < nx; i += 4 {
					seeds = append(seeds, f.Grid.VertexPosition(f.Grid.VertexIndex(i, j, k)))
				}
			}
		}
		steps := 0
		for _, s := range seeds {
			steps += len(integrate.Streamline(f, s, 1, c.par, loc, nil).Points) - 1
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range seeds {
					integrate.Streamline(f, s, 1, c.par, loc, nil)
				}
			}
			if steps > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
			}
		})
	}
}
