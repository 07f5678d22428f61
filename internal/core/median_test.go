package core

import (
	"math"
	"sort"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
)

// refMedian and refMAD are the allocate-per-call forms medianMAD
// replaced; they define the values it must return.
func refMedian(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func refMAD(xs []float64, med float64) float64 {
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return refMedian(dev)
}

func TestMedianMADMatchesReference(t *testing.T) {
	c := &Controller{}
	seed := uint64(9)
	for n := 1; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			seed = seed*6364136223846793005 + 1442695040888963407
			xs[i] = float64(seed>>40) / float64(1<<20)
		}
		orig := append([]float64(nil), xs...)
		med, mad := c.medianMAD(xs)
		wantMed := refMedian(xs)
		wantMAD := refMAD(xs, wantMed)
		if math.Float64bits(med) != math.Float64bits(wantMed) || math.Float64bits(mad) != math.Float64bits(wantMAD) {
			t.Errorf("n %d: medianMAD = %v, %v; want %v, %v", n, med, mad, wantMed, wantMAD)
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("n %d: medianMAD modified its input", n)
			}
		}
	}
}

// The outlier test runs twice per Observe; at steady state (the scratch
// buffer grown to the history window) it must not allocate.
func TestIsOutlierAllocationFree(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	cfg := hw.MaxConfig()
	st := &kernelState{obsHist: map[hw.Config]*obsWindow{}}
	res := gpusim.Result{Config: cfg}
	for i := 0; i < c.opts.Robust.HistoryWindow; i++ {
		res.Counters.VALUBusy, res.Counters.MemUnitBusy = 50+float64(i%3), 20-float64(i%4)
		c.pushObs(st, res)
	}
	if w := st.obsHist[cfg]; len(w.vb) < c.opts.Robust.MinHistory {
		t.Fatalf("history of %d samples never reaches the outlier test", len(w.vb))
	}
	c.isOutlier(st, res)
	if got := testing.AllocsPerRun(100, func() { c.isOutlier(st, res) }); got != 0 {
		t.Errorf("isOutlier allocates %v times per call, want 0", got)
	}
}
