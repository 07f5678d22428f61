package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"harmonia"
	"harmonia/internal/session"
	"harmonia/internal/simcache"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
)

func TestSameSeedSameRequestSequence(t *testing.T) {
	a, b := newRequestStream(7, 1), newRequestStream(7, 1)
	other := newRequestStream(8, 1)
	same := true
	for i := 0; i < 2000; i++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if ra != rb {
			t.Fatalf("request %d differs for the same seed: %+v vs %+v", i, ra, rb)
		}
		same = same && ra == ro
	}
	if same {
		t.Fatal("seeds 7 and 8 generated the same 2000 requests")
	}
}

func TestRequestMix(t *testing.T) {
	s := newRequestStream(3, 0)
	if r := s.next(); r.kind != kindPost {
		t.Fatalf("first request is kind %d, want a POST", r.kind)
	}
	const n = 40000
	kinds := map[int]int{}
	faulted := 0
	for i := 0; i < n; i++ {
		r := s.next()
		kinds[r.kind]++
		if r.key.faultSeed != 0 {
			faulted++
			if r.key.policy != "harmonia" || r.key.faultSeed > faultSeeds {
				t.Fatalf("faulted request %+v", r)
			}
		}
		if r.kind == kindPost && harmonia.App(r.key.app) == nil {
			t.Fatalf("unknown app %q", r.key.app)
		}
	}
	for kind, want := range map[int]float64{kindPost: 0.80, kindGet: 0.05, kindTimeline: 0.10, kindSpans: 0.05} {
		if got := float64(kinds[kind]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("kind %d share %.3f, want %.2f", kind, got, want)
		}
	}
	if got := float64(faulted) / n; math.Abs(got-0.10) > 0.01 {
		t.Errorf("faulted share %.3f, want 0.10", got)
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4}, 90, 4},
		{[]float64{3, 1}, 50, 2},
		// n = 3, p = 50: Beta(2, 2) puts 7/27, 13/27 and 7/27 of its mass
		// on the three thirds of [0, 1].
		{[]float64{4, 1, 2}, 50, 61.0 / 27},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %.15g, want %.15g", c.xs, c.p, got, c.want)
		}
	}

	// The tail of 100 samples against the Beta weights integrated
	// numerically, independently of betaInc.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100-i) * float64(100-i)
	}
	for _, p := range []float64{50, 90, 99} {
		n := float64(len(hundred))
		a, b := p/100*(n+1), (1-p/100)*(n+1)
		la, _ := math.Lgamma(a)
		lb, _ := math.Lgamma(b)
		lab, _ := math.Lgamma(a + b)
		want := 0.0
		const steps = 2000
		for i := 1; i <= len(hundred); i++ {
			w := 0.0
			for j := 0; j < steps; j++ {
				x := (float64(i-1) + (float64(j)+0.5)/steps) / n
				w += math.Exp(lab-la-lb+(a-1)*math.Log(x)+(b-1)*math.Log1p(-x)) / (steps * n)
			}
			want += w * float64(i) * float64(i)
		}
		if got := percentile(hundred, p); math.Abs(got-want) > 1e-4*want {
			t.Errorf("percentile(hundred, %g) = %.6g, want %.6g", p, got, want)
		}
	}
	if p50, p90 := percentile(hundred, 50), percentile(hundred, 90); !(p50 < p90) {
		t.Errorf("p50 %g not below p90 %g", p50, p90)
	}
	if hundred[0] != 10000 || hundred[99] != 1 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestBetaInc checks the incomplete beta function against closed forms
// on both sides of the continued fraction's switch point, and its
// symmetry at the shape sizes a large run's p90 uses.
func TestBetaInc(t *testing.T) {
	for _, x := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
		for _, c := range []struct{ a, b, want float64 }{
			{1, 1, x},
			{2, 2, 3*x*x - 2*x*x*x},
			{3.6, 1, math.Pow(x, 3.6)},
			{1, 0.4, 1 - math.Pow(1-x, 0.4)},
		} {
			if got := betaInc(c.a, c.b, x); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("betaInc(%g, %g, %g) = %.15g, want %.15g", c.a, c.b, x, got, c.want)
			}
		}
	}
	a, b := 0.9*13001, 0.1*13001
	prev := 0.0
	for _, x := range []float64{0.88, 0.895, 0.9, 0.905, 0.92} {
		got := betaInc(a, b, x)
		if sym := 1 - betaInc(b, a, 1-x); math.Abs(got-sym) > 1e-9 {
			t.Errorf("betaInc(%g, %g, %g) = %g, but 1 - I(1-x; b, a) = %g", a, b, x, got, sym)
		}
		if got < prev || got > 1 {
			t.Errorf("betaInc(%g, %g, %g) = %g, not monotone in [0, 1]", a, b, x, got)
		}
		prev = got
	}
}

// TestDecoratedRunsMatchPlain checks that the span decorators leave the
// program's outputs alone: the traced suite op computes the seed
// Summary, and decorated served-request replays give reports, timelines
// and span trees identical to plain System runs.
func TestDecoratedRunsMatchPlain(t *testing.T) {
	if err := checkSummary(tracedSuiteOp(context.Background(), map[string]float64{})); err != nil {
		t.Fatalf("traced suite op: %v", err)
	}
	sys, err := newSystem()
	if err != nil {
		t.Fatal(err)
	}
	cache := sys.Lab().Cache
	for _, k := range []runKey{
		{app: "Graph500", policy: "harmonia"},
		{app: "SPMV", policy: "oracle"},
		{app: "Sort", policy: "powertune"},
		{app: "CoMD", policy: "harmonia", faultSeed: 2},
	} {
		// A first run warms the memo, so the two compared runs see the
		// same memo state and annotate their spans alike.
		pol, opts, err := local(sys, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunContext(context.Background(), harmonia.App(k.app), pol, opts...); err != nil {
			t.Fatal(err)
		}
		if pol, _, err = local(sys, k); err != nil {
			t.Fatal(err)
		}
		tl, rec := timeline.New(), trace.New(1)
		want, err := sys.RunContext(context.Background(), harmonia.App(k.app), pol,
			append(opts, harmonia.RunWithTimeline(tl), harmonia.RunWithTrace(rec))...)
		if err != nil {
			t.Fatal(err)
		}
		got, gotTL, gotRec := decoratedRun(t, sys, cache, k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: decorated report differs from the plain one", k)
		}
		if a, b := timelineJSON(t, gotTL), timelineJSON(t, tl); !bytes.Equal(a, b) {
			t.Errorf("%v: decorated timeline differs from the plain one", k)
		}
		if a, b := spanShape(gotRec), spanShape(rec); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: decorated span tree differs from the plain one", k)
		}
	}
}

// decoratedRun is decoratedReplay with its recorders returned.
func decoratedRun(t *testing.T, sys *harmonia.System, cache *simcache.Cache, k runKey) (*session.Report, *timeline.Recorder, *trace.Recorder) {
	t.Helper()
	led := newLedger()
	pol, _, err := local(sys, k)
	if err != nil {
		t.Fatal(err)
	}
	sess := replaySession(sys, cache, k, led, pol)
	rep, err := sess.RunContext(context.Background(), harmonia.App(k.app))
	if err != nil {
		t.Fatal(err)
	}
	if led.calls("session") != 0 || led.calls(policyLayer(k.policy)) == 0 {
		t.Errorf("%v: ledger layers %v", k, led.layers)
	}
	return rep, sess.Timeline, sess.Tracer
}

func timelineJSON(t *testing.T, rec *timeline.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// spanShape is a span tree without its timings: IDs, parents, names
// and attributes.
func spanShape(rec *trace.Recorder) []string {
	var shape []string
	for _, s := range rec.Snapshot().Spans {
		shape = append(shape, fmt.Sprint(s.ID, s.Parent, s.Name, s.Attrs))
	}
	return shape
}
