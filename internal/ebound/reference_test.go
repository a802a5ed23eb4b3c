package ebound

import (
	"math"

	"tspsz/internal/critical"
	"tspsz/internal/field"
	"tspsz/internal/grid"
)

// This file keeps the bound derivation as it was before the per-cell
// linearization and the vertex-star table, as the reference the
// differential tests hold VertexBound and VertexBoundSoS to bit for bit.
// Every cell re-ran four full barycentric evaluations for each numerator it
// linearized, and a vertex's cells came from probing the cells of its
// neighbouring squares or cubes.

func refCell2D(v [3][2]float64, cur int, mode Mode) (eb float64, hasCP bool) {
	m, M := critical.Barycentric2D(v)
	if M != 0 {
		inside := true
		for k := 0; k < 3; k++ {
			if mu := m[k] / M; mu < 0 || mu > 1 {
				inside = false
				break
			}
		}
		if inside {
			return 0, true
		}
	}
	weights := refWeights2D(v[cur], mode)
	best := 0.0
	for k := 0; k < 3; k++ {
		if M != 0 {
			if mu := m[k] / M; mu >= 0 && mu <= 1 {
				continue
			}
		}
		cM, a0, a1 := refLinearize2D(v, cur, k)
		e := math.Min(
			signEB(cM[0], &a0, &weights, 2),
			signEB(cM[1], &a1, &weights, 2),
		)
		if e > best {
			best = e
		}
	}
	return best, false
}

func refLinearize2D(v [3][2]float64, cur, k int) (c [2]float64, a0, a1 [3]float64) {
	eval := func(du, dv float64) (mk, rest float64) {
		w := v
		w[cur][0] += du
		w[cur][1] += dv
		m, M := critical.Barycentric2D(w)
		return m[k], M - m[k]
	}
	c0, c1 := eval(0, 0)
	u0, u1 := eval(1, 0)
	v0, v1 := eval(0, 1)
	c = [2]float64{c0, c1}
	a0 = [3]float64{u0 - c0, v0 - c0}
	a1 = [3]float64{u1 - c1, v1 - c1}
	return c, a0, a1
}

func refWeights2D(cur [2]float64, mode Mode) [3]float64 {
	if mode == Absolute {
		return [3]float64{1, 1}
	}
	return [3]float64{math.Abs(cur[0]), math.Abs(cur[1])}
}

func refCell3D(v [4][3]float64, cur int, mode Mode) (eb float64, hasCP bool) {
	d, M := critical.Barycentric3D(v)
	if M != 0 {
		inside := true
		for k := 0; k < 4; k++ {
			if mu := d[k] / M; mu < 0 || mu > 1 {
				inside = false
				break
			}
		}
		if inside {
			return 0, true
		}
	}
	weights := refWeights3D(v[cur], mode)
	best := 0.0
	for k := 0; k < 4; k++ {
		if M != 0 {
			if mu := d[k] / M; mu >= 0 && mu <= 1 {
				continue
			}
		}
		cM, a0, a1 := refLinearize3D(v, cur, k)
		e := math.Min(
			signEB(cM[0], &a0, &weights, 3),
			signEB(cM[1], &a1, &weights, 3),
		)
		if e > best {
			best = e
		}
	}
	return best, false
}

func refLinearize3D(v [4][3]float64, cur, k int) (c [2]float64, a0, a1 [3]float64) {
	eval := func(du, dv, dw float64) (dk, rest float64) {
		w := v
		w[cur][0] += du
		w[cur][1] += dv
		w[cur][2] += dw
		d, M := critical.Barycentric3D(w)
		return d[k], M - d[k]
	}
	c0, c1 := eval(0, 0, 0)
	pu0, pu1 := eval(1, 0, 0)
	pv0, pv1 := eval(0, 1, 0)
	pw0, pw1 := eval(0, 0, 1)
	c = [2]float64{c0, c1}
	a0 = [3]float64{pu0 - c0, pv0 - c0, pw0 - c0}
	a1 = [3]float64{pu1 - c1, pv1 - c1, pw1 - c1}
	return c, a0, a1
}

func refWeights3D(cur [3]float64, mode Mode) [3]float64 {
	if mode == Absolute {
		return [3]float64{1, 1, 1}
	}
	return [3]float64{math.Abs(cur[0]), math.Abs(cur[1]), math.Abs(cur[2])}
}

func refSoSCell2D(v [3][2]float64, cur int, mode Mode) float64 {
	weights := refWeights2D(v[cur], mode)
	best := math.Inf(1)
	for k := 0; k < 3; k++ {
		c, a0, a1 := refLinearize2D(v, cur, k)
		e := math.Min(
			signEB(c[0], &a0, &weights, 2),
			signEB(c[1], &a1, &weights, 2),
		)
		if e < best {
			best = e
		}
	}
	return best
}

func refSoSCell3D(v [4][3]float64, cur int, mode Mode) float64 {
	weights := refWeights3D(v[cur], mode)
	best := math.Inf(1)
	for k := 0; k < 4; k++ {
		c, a0, a1 := refLinearize3D(v, cur, k)
		e := math.Min(
			signEB(c[0], &a0, &weights, 3),
			signEB(c[1], &a1, &weights, 3),
		)
		if e < best {
			best = e
		}
	}
	return best
}

// refVertexCells appends the cells incident to vertex v by probing every
// cell of the squares or cubes around it.
func refVertexCells(g *grid.Grid, v int, dst []int) []int {
	i, j, k := g.VertexCoords(v)
	nx, ny, nz := g.Dims()
	var vbuf [4]int
	has := func(c int) bool {
		for _, cv := range g.CellVertices(c, vbuf[:0]) {
			if cv == v {
				return true
			}
		}
		return false
	}
	if g.Dim() == 2 {
		for dj := -1; dj <= 0; dj++ {
			for di := -1; di <= 0; di++ {
				ci, cj := i+di, j+dj
				if ci < 0 || cj < 0 || ci >= nx-1 || cj >= ny-1 {
					continue
				}
				sq := ci + cj*(nx-1)
				for t := 0; t < grid.CellsPerSquare; t++ {
					if c := sq*grid.CellsPerSquare + t; has(c) {
						dst = append(dst, c)
					}
				}
			}
		}
		return dst
	}
	for dk := -1; dk <= 0; dk++ {
		for dj := -1; dj <= 0; dj++ {
			for di := -1; di <= 0; di++ {
				ci, cj, ck := i+di, j+dj, k+dk
				if ci < 0 || cj < 0 || ck < 0 || ci >= nx-1 || cj >= ny-1 || ck >= nz-1 {
					continue
				}
				cube := ci + (nx-1)*(cj+(ny-1)*ck)
				for t := 0; t < grid.CellsPerCube; t++ {
					if c := cube*grid.CellsPerCube + t; has(c) {
						dst = append(dst, c)
					}
				}
			}
		}
	}
	return dst
}

// refVertexBound is VertexBound as it was: the minimum of refCell2D or
// refCell3D over refVertexCells, stopping at the first critical-point cell.
func refVertexBound(f *field.Field, idx int, mode Mode) (eb float64, hasCP bool) {
	var cbuf [24]int
	cells := refVertexCells(f.Grid, idx, cbuf[:0])
	eb = math.Inf(1)
	var vbuf [4]int
	for _, c := range cells {
		vs := f.Grid.CellVertices(c, vbuf[:0])
		var cellEB float64
		var cellCP bool
		if f.Dim() == 2 {
			var v [3][2]float64
			cur := -1
			for i, vi := range vs {
				v[i][0] = float64(f.U[vi])
				v[i][1] = float64(f.V[vi])
				if vi == idx {
					cur = i
				}
			}
			cellEB, cellCP = refCell2D(v, cur, mode)
		} else {
			var v [4][3]float64
			cur := -1
			for i, vi := range vs {
				v[i][0] = float64(f.U[vi])
				v[i][1] = float64(f.V[vi])
				v[i][2] = float64(f.W[vi])
				if vi == idx {
					cur = i
				}
			}
			cellEB, cellCP = refCell3D(v, cur, mode)
		}
		if cellCP {
			return 0, true
		}
		if cellEB < eb {
			eb = cellEB
		}
	}
	return eb, false
}

// refVertexBoundSoS is VertexBoundSoS as it was.
func refVertexBoundSoS(f *field.Field, idx int, mode Mode) float64 {
	var cbuf [24]int
	cells := refVertexCells(f.Grid, idx, cbuf[:0])
	eb := math.Inf(1)
	var vbuf [4]int
	for _, c := range cells {
		vs := f.Grid.CellVertices(c, vbuf[:0])
		var cellEB float64
		if f.Dim() == 2 {
			var v [3][2]float64
			cur := -1
			for i, vi := range vs {
				v[i][0] = float64(f.U[vi])
				v[i][1] = float64(f.V[vi])
				if vi == idx {
					cur = i
				}
			}
			cellEB = refSoSCell2D(v, cur, mode)
		} else {
			var v [4][3]float64
			cur := -1
			for i, vi := range vs {
				v[i][0] = float64(f.U[vi])
				v[i][1] = float64(f.V[vi])
				v[i][2] = float64(f.W[vi])
				if vi == idx {
					cur = i
				}
			}
			cellEB = refSoSCell3D(v, cur, mode)
		}
		if cellEB < eb {
			eb = cellEB
		}
	}
	return eb
}
