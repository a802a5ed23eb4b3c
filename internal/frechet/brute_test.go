package frechet

import (
	"math"
	"math/rand"
	"testing"
)

// bruteDistance is the textbook exponential-memoization reference
// implementation, used to validate the rolling-row DP on small inputs.
func bruteDistance(p, q []Point) float64 {
	memo := make(map[[2]int]float64)
	var c func(i, j int) float64
	c = func(i, j int) float64 {
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		d := math.Sqrt(sqDist(p[i], q[j]))
		var v float64
		switch {
		case i == 0 && j == 0:
			v = d
		case i == 0:
			v = math.Max(c(0, j-1), d)
		case j == 0:
			v = math.Max(c(i-1, 0), d)
		default:
			v = math.Max(math.Min(c(i-1, j), math.Min(c(i-1, j-1), c(i, j-1))), d)
		}
		memo[[2]int{i, j}] = v
		return v
	}
	return c(len(p)-1, len(q)-1)
}

// fullWithinTol is the boolean reachability DP over the whole |p|·|q| table,
// the reference WithinTol must agree with on every input.
func fullWithinTol(p, q []Point, tol float64) bool {
	if len(p) == 0 && len(q) == 0 {
		return true
	}
	if len(p) == 0 || len(q) == 0 {
		return false
	}
	t2 := tol * tol
	close := func(i, j int) bool { return sqDist(p[i], q[j]) <= t2 }
	prev := make([]bool, len(q))
	cur := make([]bool, len(q))
	prev[0] = close(0, 0)
	if !prev[0] {
		return false
	}
	for j := 1; j < len(q); j++ {
		prev[j] = prev[j-1] && close(0, j)
	}
	for i := 1; i < len(p); i++ {
		cur[0] = prev[0] && close(i, 0)
		any := cur[0]
		for j := 1; j < len(q); j++ {
			cur[j] = (prev[j] || prev[j-1] || cur[j-1]) && close(i, j)
			any = any || cur[j]
		}
		if !any {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(q)-1]
}

func TestDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12) + 1
		m := rng.Intn(12) + 1
		p := randCurve(rng, n)
		q := randCurve(rng, m)
		got := Distance(p, q)
		want := bruteDistance(p, q)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: Distance %v, brute force %v", trial, got, want)
		}
	}
}
