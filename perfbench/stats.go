package main

import (
	"math"
	"sort"

	"harmonia/internal/floats"
)

// percentile returns the Harrell–Davis estimate of the p-th percentile
// (0 < p < 100) of xs: the order statistics weighted by the Beta(p(n+1),
// (1-p)(n+1)) distribution's mass over [(i-1)/n, i/n]. It averages the
// samples around the rank instead of picking one, so it moves less from
// run to run when few samples lie near the rank, as at the p90 of
// validate-eventsim, whose slowest tenth is a handful of MaxFlops points.
// It returns NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := p/100*(n+1), (1-p/100)*(n+1)
	est, prev := 0.0, 0.0
	for i, x := range s {
		c := betaInc(a, b, float64(i+1)/n)
		if w := c - prev; w > 0 {
			est += w * x
		}
		prev = c
	}
	return est
}

// median is the 50th percentile by the same estimator.
func median(xs []float64) float64 { return percentile(xs, 50) }

// betaInc is the regularized incomplete beta function I_x(a, b), from
// its continued fraction (Numerical Recipes, betai), for a, b > 0.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lfront := lab - la - lb + a*math.Log(x) + b*math.Log1p(-x)
	if x < (a+1)/(a+b+2) {
		return math.Exp(lfront) * betaFrac(a, b, x) / a
	}
	return 1 - math.Exp(lfront)*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of I_x(a, b) by the modified
// Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 100_000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d, c = 1/clamp(1+num*d), clamp(1+num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d, c = 1/clamp(1+num*d), clamp(1+num/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// share returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func share(num, den float64) float64 {
	if floats.Zero(den) {
		return 0
	}
	return num / den
}
