package sensitivity

import (
	"fmt"
	"math"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/regress"
	"harmonia/internal/simcache"
	"harmonia/internal/workloads"
)

// goldenPredictor holds math.Float64bits of every fitted value of
// TrainDefault's four models, captured from the per-model regress.Fit
// training (four separate normal-equation passes over materialized
// TrainingPoint rows) before training moved to one shared Gram. The
// shared-Gram fit must reproduce them bit for bit; never re-capture
// these to make a change pass.
var goldenPredictor = []struct {
	model     string
	intercept uint64
	coeffs    []uint64
	r2, corr  uint64
}{
	{"Bandwidth", 0xbf871f25a8a53dcf, []uint64{0x3f4a369a2f102a09, 0xbf7535f2273c74d7, 0x3f80e9f542b33390, 0x3f3c13e75825dc3e, 0x3fc4215f72816239, 0xbfec5dedcff47da8, 0x3fb02ec2d89d912c}, 0x3fea395c272ea9df, 0x3fecf7eb18a64073},
	{"Compute", 0xbfd252404fe73690, []uint64{0x3f7b7e01e4785c6c, 0x3fab0d385cb39622, 0x3fedb06a0143a542}, 0x3fe49ae9ca801b40, 0x3fe9ad971d4dda59},
	{"CUs", 0xbfd6ec38b31fd193, []uint64{0xbf656e4f14e6abe9, 0x3f60da30ddb4e072, 0xbf70ba46afaad6ac, 0x3f7480a558684bdf, 0x3fa3e6e8139b2239, 0x3ffc4cfc6d3fe4db, 0x3fbb9ee440116842, 0x3f501a598c3000e6, 0x3f860c55334c7ef2, 0xbfa9ff7a6b895d12, 0x3fd4de7c32dae0a9, 0x3fca93b65edd0ff5, 0xbfbce9140ecb1588, 0xbf6a25398c404195}, 0x3fed33f5ea398347, 0x3fee91cb8d0f2500},
	{"CUFreq", 0x3fe2317a1e7c73c9, []uint64{0x3f6676172659769d, 0x3f702a7f5c7c5fc9, 0xbf6c5d12237db6b0, 0x3f68c1c13dea9eef, 0xbfb67c06c062c867, 0xc004a8ee3f139f95, 0x3fd09f3b9d1625d5, 0x3f54f72d289296d4, 0x3f774993477d8c5e, 0xbfe2393e641c6bfe, 0x3fd0d0f915f596ca, 0x3fc732e0fc3eaba8, 0xbfbd2487c60ed523, 0x3f70493402e7051a}, 0x3fed9f69b2435f20, 0x3feec9d5af15d88a},
}

// predictorModels returns p's four models under the golden names.
func predictorModels(p *Predictor) map[string]*regress.Model {
	return map[string]*regress.Model{
		"Bandwidth": p.Bandwidth, "Compute": p.Compute, "CUs": p.CUs, "CUFreq": p.CUFreq,
	}
}

func TestGoldenPredictorBits(t *testing.T) {
	p, err := TrainDefault()
	if err != nil {
		t.Fatal(err)
	}
	models := predictorModels(p)
	for _, g := range goldenPredictor {
		m := models[g.model]
		if got := math.Float64bits(m.Intercept); got != g.intercept {
			t.Errorf("%s intercept = %#x (%v), want %#x (%v)",
				g.model, got, m.Intercept, g.intercept, math.Float64frombits(g.intercept))
		}
		if len(m.Coeffs) != len(g.coeffs) {
			t.Errorf("%s has %d coefficients, want %d", g.model, len(m.Coeffs), len(g.coeffs))
			continue
		}
		for i, c := range m.Coeffs {
			if got := math.Float64bits(c); got != g.coeffs[i] {
				t.Errorf("%s coefficient %d (%s) = %#x (%v), want %#x (%v)",
					g.model, i, m.Names[i], got, c, g.coeffs[i], math.Float64frombits(g.coeffs[i]))
			}
		}
		if got := math.Float64bits(m.R2); got != g.r2 {
			t.Errorf("%s R2 = %#x (%v), want %#x", g.model, got, m.R2, g.r2)
		}
		if got := math.Float64bits(m.Corr); got != g.corr {
			t.Errorf("%s Corr = %#x (%v), want %#x", g.model, got, m.Corr, g.corr)
		}
	}
}

// samePredictor reports every field of a and b that differs in its bits.
func samePredictor(t *testing.T, label string, a, b *Predictor) {
	t.Helper()
	bm := predictorModels(b)
	for name, ma := range predictorModels(a) {
		mb := bm[name]
		same := math.Float64bits(ma.Intercept) == math.Float64bits(mb.Intercept) &&
			math.Float64bits(ma.R2) == math.Float64bits(mb.R2) &&
			math.Float64bits(ma.Corr) == math.Float64bits(mb.Corr) &&
			len(ma.Coeffs) == len(mb.Coeffs) && len(ma.Names) == len(mb.Names)
		for i := range ma.Coeffs {
			same = same && i < len(mb.Coeffs) && math.Float64bits(ma.Coeffs[i]) == math.Float64bits(mb.Coeffs[i])
		}
		for i := range ma.Names {
			same = same && i < len(mb.Names) && ma.Names[i] == mb.Names[i]
		}
		if !same {
			t.Errorf("%s: %s model differs:\n  %v (R2 %v, corr %v)\n  %v (R2 %v, corr %v)",
				label, name, ma, ma.R2, ma.Corr, mb, mb.R2, mb.Corr)
		}
	}
}

// TrainConfigs streams the rows BuildConfigTrainingSetN materializes; the
// two paths must fit identical predictors on the raw model and through
// the simulation memo's prepared runner, serially and in parallel.
func TestTrainConfigsBitIdenticalToTrain(t *testing.T) {
	kernels := workloads.AllKernels()
	runners := []struct {
		name string
		m    gpusim.Runner
	}{
		{"raw", gpusim.Default()},
		{"simcache", simcache.Cached{Model: gpusim.Default(), Cache: simcache.New()}},
	}
	for _, r := range runners {
		want, err := Train(BuildConfigTrainingSetN(r.m, kernels, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} {
			got, err := TrainConfigs(r.m, kernels, workers)
			if err != nil {
				t.Fatal(err)
			}
			samePredictor(t, fmt.Sprintf("%s, workers %d", r.name, workers), got, want)
		}
	}
}

// ConfigTrainingRows counts BuildConfigTrainingSet's rows without
// building them.
func TestConfigTrainingRowsMatchesBuild(t *testing.T) {
	kernels := workloads.AllKernels()
	pts := BuildConfigTrainingSet(gpusim.Default(), kernels)
	if got := ConfigTrainingRows(kernels); got != len(pts) {
		t.Errorf("ConfigTrainingRows = %d, len(BuildConfigTrainingSet) = %d", got, len(pts))
	}
	if cap(pts) != len(pts) {
		t.Errorf("BuildConfigTrainingSet grew its slice: cap %d for %d rows", cap(pts), len(pts))
	}
	if len(pts) != 14784 {
		t.Errorf("suite training set has %d rows, want 14784 (25 x 448 + 8 x 448)", len(pts))
	}
}
