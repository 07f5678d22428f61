package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExtendedFeaturesMatchNames(t *testing.T) {
	s := validSet()
	s.NormCUsActive = 0.5
	s.NormCUClock = 0.7
	s.NormMemClock = 0.9
	feats := s.ExtendedFeatures()
	names := ExtendedFeatureNames()
	if len(feats) != len(names) {
		t.Fatalf("%d features for %d names", len(feats), len(names))
	}
	// The extended set starts with the bandwidth set...
	for i, v := range s.BandwidthFeatures() {
		if feats[i] != v {
			t.Errorf("feature %d (%s) = %v, want bandwidth value %v", i, names[i], feats[i], v)
		}
	}
	// ...and ends with the DPM-state registers and divergence impact.
	n := len(feats)
	if feats[n-4] != 0.5 || feats[n-3] != 0.7 || feats[n-2] != 0.9 {
		t.Errorf("DPM register features wrong: %v", feats[n-4:])
	}
	if feats[n-1] != s.DivergenceImpact() {
		t.Errorf("divergence impact feature = %v, want %v", feats[n-1], s.DivergenceImpact())
	}
}

// featureSink makes the vector escape, as it does in a prediction.
var featureSink []float64

// ExtendedFeatures is on every CU and CU-frequency prediction: one
// allocation, the returned vector; AppendExtendedFeatures into a slice
// with room makes none.
func TestExtendedFeaturesAllocs(t *testing.T) {
	s := validSet()
	if got := testing.AllocsPerRun(100, func() { featureSink = s.ExtendedFeatures() }); got != 1 {
		t.Errorf("ExtendedFeatures allocates %v times, want 1", got)
	}
	buf := make([]float64, 0, NumExtendedFeatures)
	if got := testing.AllocsPerRun(100, func() { buf = s.AppendExtendedFeatures(buf[:0]) }); got != 0 {
		t.Errorf("AppendExtendedFeatures allocates %v times, want 0", got)
	}
	if len(buf) != NumExtendedFeatures || len(ExtendedFeatureNames()) != NumExtendedFeatures {
		t.Errorf("%d features, %d names, NumExtendedFeatures %d",
			len(buf), len(ExtendedFeatureNames()), NumExtendedFeatures)
	}
}

func TestDivergenceImpact(t *testing.T) {
	// 40% divergence at 50% VALU busyness -> impact 20.
	s := Set{VALUUtilization: 60, VALUBusy: 50}
	if got := s.DivergenceImpact(); math.Abs(got-20) > 1e-9 {
		t.Errorf("DivergenceImpact = %v, want 20", got)
	}
	// No divergence -> zero impact regardless of busyness.
	s = Set{VALUUtilization: 100, VALUBusy: 99}
	if got := s.DivergenceImpact(); got != 0 {
		t.Errorf("DivergenceImpact = %v, want 0", got)
	}
}

func TestValuesRoundTrip(t *testing.T) {
	s := validSet()
	s.NormCUsActive, s.NormCUClock, s.NormMemClock = 0.25, 0.3, 0.4
	vs := s.Values()
	if len(vs) != len(FieldNames()) {
		t.Fatalf("%d values for %d names", len(vs), len(FieldNames()))
	}
	back, err := FromValues(vs)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip lost data: %+v vs %+v", back, s)
	}
	if _, err := FromValues(vs[:3]); err == nil {
		t.Error("short vector accepted")
	}
}

// Property: Blend(x, x, alpha) == x and Blend(a, b, 1) == b.
func TestBlendProperties(t *testing.T) {
	f := func(a, b uint8, alpha uint8) bool {
		sa := validSet()
		sa.VALUBusy = float64(a) / 255 * 100
		sb := validSet()
		sb.VALUBusy = float64(b) / 255 * 100
		sb.MemUnitBusy = 75
		w := float64(alpha) / 255
		idem := sa.Blend(sa, w)
		full := sa.Blend(sb, 1)
		if math.Abs(idem.VALUBusy-sa.VALUBusy) > 1e-9 {
			return false
		}
		// alpha = 1 lands on the new sample up to floating-point
		// rounding of a + (b - a).
		fv, bv := full.Values(), sb.Values()
		for i := range fv {
			if math.Abs(fv[i]-bv[i]) > 1e-9 {
				return false
			}
		}
		// Blend result is element-wise between the endpoints.
		mid := sa.Blend(sb, w)
		lo, hi := math.Min(sa.VALUBusy, sb.VALUBusy), math.Max(sa.VALUBusy, sb.VALUBusy)
		return mid.VALUBusy >= lo-1e-9 && mid.VALUBusy <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
