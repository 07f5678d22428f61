package regress

import (
	"fmt"
	"math"
	"testing"
)

// lcg returns a deterministic pseudo-random source in [-0.5, 0.5).
func lcg(seed uint64) func() float64 {
	return func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40)/float64(1<<24) - 0.5
	}
}

// randomDesign returns n rows of p features with columns on different
// scales, and targets linear in them plus noise.
func randomDesign(seed uint64, n, p, targets int) (X [][]float64, ys [][]float64) {
	next := lcg(seed)
	X = make([][]float64, n)
	ys = make([][]float64, n)
	for r := range X {
		X[r] = make([]float64, p)
		for c := range X[r] {
			X[r][c] = next() * math.Pow(10, float64(c%4))
		}
		ys[r] = make([]float64, targets)
		for t := range ys[r] {
			y := float64(t) + next()
			for c, v := range X[r] {
				y += float64((c+t)%5-2) * v
			}
			ys[r][t] = y
		}
	}
	return X, ys
}

// sameModel reports whether a and b are equal bit for bit.
func sameModel(a, b *Model) bool {
	if math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) ||
		math.Float64bits(a.R2) != math.Float64bits(b.R2) ||
		math.Float64bits(a.Corr) != math.Float64bits(b.Corr) ||
		len(a.Coeffs) != len(b.Coeffs) {
		return false
	}
	for i := range a.Coeffs {
		if math.Float64bits(a.Coeffs[i]) != math.Float64bits(b.Coeffs[i]) {
			return false
		}
	}
	return true
}

// Solve on one shared Gram must equal Fit on the rows projected to the
// solved columns, for every target, bit for bit.
func TestSolveMatchesFitOnProjectedRows(t *testing.T) {
	const p, targets = 14, 3
	subsets := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
		{0, 1, 2, 3, 4, 5, 6},
		{7, 5, 6},
		{13, 0},
		{9},
		{12, 3, 8, 1, 10},
	}
	for _, seed := range []uint64{1, 7, 42} {
		for _, n := range []int{20, 300} {
			X, ys := randomDesign(seed, n, p, targets)
			g := NewGram(p, targets)
			for r := range X {
				g.Add(X[r], ys[r])
			}
			for _, cols := range subsets {
				proj := make([][]float64, n)
				for r := range X {
					for _, c := range cols {
						proj[r] = append(proj[r], X[r][c])
					}
				}
				for target := 0; target < targets; target++ {
					y := make([]float64, n)
					for r := range ys {
						y[r] = ys[r][target]
					}
					want, err := Fit(proj, y, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := g.Solve(cols, target, nil)
					if err != nil {
						t.Fatal(err)
					}
					fitted := make([]float64, n)
					for r := range X {
						fitted[r] = got.EvalCols(X[r], cols)
					}
					got.R2, got.Corr = Quality(y, fitted)
					if !sameModel(got, want) {
						t.Errorf("seed %d, n %d, cols %v, target %d:\n  Solve %v (R2 %v, corr %v)\n  Fit   %v (R2 %v, corr %v)",
							seed, n, cols, target, got, got.R2, got.Corr, want, want.R2, want.Corr)
					}
				}
			}
		}
	}
}

func TestSolveShapeErrors(t *testing.T) {
	g := NewGram(3, 1)
	for i := 0; i < 3; i++ {
		g.Add([]float64{float64(i), 1, 2}, []float64{1})
	}
	if _, err := g.Solve([]int{0, 1, 2}, 0, nil); err != ErrBadShape {
		t.Errorf("3 rows, 3 columns: err = %v, want ErrBadShape", err)
	}
	if _, err := g.Solve([]int{0}, 0, nil); err != nil {
		t.Errorf("3 rows, 1 column: err = %v", err)
	}
	for name, add := range map[string]func(){
		"short row":     func() { g.Add([]float64{1, 2}, []float64{1}) },
		"extra targets": func() { g.Add([]float64{1, 2, 3}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Add did not panic", name)
				}
			}()
			add()
		}()
	}
}

// Add is the per-row training step: it must not allocate.
func TestGramAddAllocationFree(t *testing.T) {
	g := NewGram(14, 4)
	x := make([]float64, 14)
	ys := make([]float64, 4)
	for i := range x {
		x[i] = float64(i)
	}
	if got := testing.AllocsPerRun(100, func() { g.Add(x, ys) }); got != 0 {
		t.Errorf("Gram.Add allocates %v times per row, want 0", got)
	}
}

func BenchmarkGramAdd(b *testing.B) {
	for _, p := range []int{3, 14} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			g := NewGram(p, 4)
			x, ys := make([]float64, p), make([]float64, 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Add(x, ys)
			}
		})
	}
}
