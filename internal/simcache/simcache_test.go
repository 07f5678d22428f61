package simcache

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/workloads"
)

func testKernel(t *testing.T, name string) *workloads.Kernel {
	t.Helper()
	for _, k := range workloads.AllKernels() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("kernel %q not in catalog", name)
	return nil
}

func TestCachedBitIdenticalToUncached(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "Graph500.BottomStepUp")
	for _, cfg := range hw.ConfigSpace() {
		for iter := 0; iter < 4; iter++ {
			want := m.Run(k, iter, cfg)
			if got := c.Run(m, k, iter, cfg); got != want {
				t.Fatalf("cold cache diverged at iter %d cfg %v:\n got %+v\nwant %+v", iter, cfg, got, want)
			}
			if got := c.Run(m, k, iter, cfg); got != want {
				t.Fatalf("warm cache diverged at iter %d cfg %v:\n got %+v\nwant %+v", iter, cfg, got, want)
			}
		}
	}
}

func TestHitMissAccounting(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	cfgs := hw.ConfigSpace()[:10]
	for _, cfg := range cfgs {
		c.Run(m, k, 0, cfg)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != uint64(len(cfgs)) {
		t.Fatalf("after cold pass: hits=%d misses=%d, want 0/%d", hits, misses, len(cfgs))
	}
	for _, cfg := range cfgs {
		c.Run(m, k, 0, cfg)
	}
	if hits, misses := c.Stats(); hits != uint64(len(cfgs)) || misses != uint64(len(cfgs)) {
		t.Fatalf("after warm pass: hits=%d misses=%d, want %d/%d", hits, misses, len(cfgs), len(cfgs))
	}
	if n := c.Len(); n != len(cfgs) {
		t.Fatalf("Len() = %d, want %d", n, len(cfgs))
	}
}

func TestDistinctCalibrationsDoNotCollide(t *testing.T) {
	m1 := gpusim.Default()
	m2 := gpusim.Default()
	// Perturb one calibration constant: same kernel + config must land
	// in a different cache entry and reproduce the perturbed result.
	m2.MemLatency *= 2
	k := testKernel(t, "LUD.Internal")
	cfg := hw.MaxConfig()

	c := New()
	r1 := c.Run(m1, k, 0, cfg)
	r2 := c.Run(m2, k, 0, cfg)
	if r1 == r2 {
		t.Fatal("distinct calibrations returned identical results — likely a key collision")
	}
	if want := m2.Run(k, 0, cfg); r2 != want {
		t.Fatalf("perturbed model's cached result wrong:\n got %+v\nwant %+v", r2, want)
	}
	if hits, _ := c.Stats(); hits != 0 {
		t.Fatalf("second model hit the first model's entry (%d hits)", hits)
	}
}

func TestSameNameDifferentKernelsDoNotCollide(t *testing.T) {
	a := workloads.NewKernel("Twin").MustBuild()
	b := workloads.NewKernel("Twin").Compute(a.VALUPerWI*4, a.SALUPerWI).MustBuild()
	m := gpusim.Default()
	c := New()
	cfg := hw.MaxConfig()
	ra := c.Run(m, a, 0, cfg)
	rb := c.Run(m, b, 0, cfg)
	if wa := m.Run(a, 0, cfg); ra != wa {
		t.Fatalf("kernel a: got %+v want %+v", ra, wa)
	}
	if wb := m.Run(b, 0, cfg); rb != wb {
		t.Fatalf("kernel b collided with a: got %+v want %+v", rb, wb)
	}
}

func TestPhaseStableIterationsShareEntries(t *testing.T) {
	// LUD.Internal has no phase function: every iteration resolves to
	// the same Phase, so iterations beyond the first must hit.
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	cfg := hw.MaxConfig()
	c.Run(m, k, 0, cfg)
	c.Run(m, k, 1, cfg)
	c.Run(m, k, 7, cfg)
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("phase-stable kernel: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// Graph500.BottomStepUp is phase-varying: different iterations must
	// not share entries (and must reproduce per-iteration results).
	k2 := testKernel(t, "Graph500.BottomStepUp")
	r0 := c.Run(m, k2, 0, cfg)
	r1 := c.Run(m, k2, 1, cfg)
	if r0 == r1 {
		t.Fatal("phase-varying iterations returned identical results")
	}
	if want := m.Run(k2, 1, cfg); r1 != want {
		t.Fatalf("iter 1: got %+v want %+v", r1, want)
	}
}

func TestConcurrentMixedSweep(t *testing.T) {
	// Goroutines sweep overlapping (kernel, iter, config) triples through
	// one cache, three ways at once: Run probes over a prefix of the
	// space, Prepare sweeps filling whole slabs while the Run probes read
	// them lock-free, and decision reads and writes on the same slabs.
	// Run under -race. Every returned result must equal the raw model's.
	m := gpusim.Default()
	pp := power.DefaultParams()
	c := New()
	kernels := workloads.AllKernels()[:6]
	prefix := hw.ConfigSpace()[:40]
	space := hw.ConfigSpace()

	var wg sync.WaitGroup
	start := make(chan struct{}) // release every goroutine at once
	errs := make(chan string, 16)
	fail := func(name string) {
		select {
		case errs <- name:
		default:
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for pass := 0; pass < 2; pass++ {
				for ki, k := range kernels {
					for ci, cfg := range prefix {
						iter := (g + ki + ci) % 3
						if c.Run(m, k, iter, cfg) != m.Run(k, iter, cfg) {
							fail(k.Name)
							return
						}
					}
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for ki, k := range kernels {
				iter := ki % 3 // every sweeper fills the same slabs
				eval := c.Prepare(m, k, iter)
				for _, cfg := range space {
					if eval(cfg) != m.Run(k, iter, cfg) {
						fail(k.Name)
						return
					}
				}
				c.StoreDecision(m, pp, k, iter, g, len(space), hw.MaxConfig())
				if cfg, ok := c.Decision(m, pp, k, iter, g, len(space)); !ok || cfg != hw.MaxConfig() {
					fail(k.Name + " decision")
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	if name, bad := <-errs; bad {
		t.Fatalf("concurrent cached result diverged for kernel %s", name)
	}
	hits, misses := c.Stats()
	if hits+misses == 0 || misses == 0 {
		t.Fatalf("implausible stats: hits=%d misses=%d", hits, misses)
	}
}

func TestForNilCacheReturnsModel(t *testing.T) {
	m := gpusim.Default()
	if r := For(m, nil); r != gpusim.Runner(m) {
		t.Fatalf("For(m, nil) = %T, want the model itself", r)
	}
	c := New()
	cached, ok := For(m, c).(Cached)
	if !ok || cached.Model != m || cached.Cache != c {
		t.Fatalf("For(m, c) = %#v, want Cached{m, c}", cached)
	}
	// Cached with a nil cache degrades to the raw model.
	k := testKernel(t, "LUD.Internal")
	raw := Cached{Model: m}
	if got, want := raw.Run(k, 0, hw.MaxConfig()), m.Run(k, 0, hw.MaxConfig()); got != want {
		t.Fatalf("nil-cache Cached diverged: %+v vs %+v", got, want)
	}
}

func TestDecisionMemoRoundTrip(t *testing.T) {
	m := gpusim.Default()
	pp := power.DefaultParams()
	k := testKernel(t, "LUD.Internal")
	c := New()

	if _, ok := c.Decision(m, pp, k, 0, 0, 448); ok {
		t.Fatal("empty cache returned a decision")
	}
	want := hw.MaxConfig()
	c.StoreDecision(m, pp, k, 0, 0, 448, want)
	got, ok := c.Decision(m, pp, k, 0, 0, 448)
	if !ok || got != want {
		t.Fatalf("Decision = %v, %v; want %v, true", got, ok, want)
	}
	// Phase-stable kernel: a later iteration resolves to the same phase
	// and therefore the same entry.
	if got, ok := c.Decision(m, pp, k, 5, 0, 448); !ok || got != want {
		t.Fatalf("iter 5 Decision = %v, %v; want shared entry", got, ok)
	}
	if hits, misses := c.DecisionStats(); hits != 2 || misses != 1 {
		t.Fatalf("DecisionStats = %d/%d, want 2 hits, 1 miss", hits, misses)
	}
}

func TestDecisionMemoKeySeparation(t *testing.T) {
	m := gpusim.Default()
	pp := power.DefaultParams()
	k := testKernel(t, "LUD.Internal")
	c := New()
	c.StoreDecision(m, pp, k, 0, 0, 448, hw.MaxConfig())

	// A different objective, space size, power calibration, or simulator
	// calibration must not see the entry.
	if _, ok := c.Decision(m, pp, k, 0, 1, 448); ok {
		t.Error("different objective shared a decision")
	}
	if _, ok := c.Decision(m, pp, k, 0, 0, 447); ok {
		t.Error("different space size shared a decision")
	}
	pp2 := pp
	pp2.OtherW *= 2
	if _, ok := c.Decision(m, pp2, k, 0, 0, 448); ok {
		t.Error("different power calibration shared a decision")
	}
	m2 := gpusim.Default()
	m2.MemLatency *= 2
	if _, ok := c.Decision(m2, pp, k, 0, 0, 448); ok {
		t.Error("different simulator calibration shared a decision")
	}
	// Phase-varying kernel: iterations in different phases must not
	// share decisions.
	kv := testKernel(t, "Graph500.BottomStepUp")
	c.StoreDecision(m, pp, kv, 0, 0, 448, hw.MaxConfig())
	if _, ok := c.Decision(m, pp, kv, 1, 0, 448); ok {
		t.Error("phase-varying iterations shared a decision")
	}
}

// TestPreparedBitIdenticalToRun: the prebuilt-key read path must return
// exactly what Run returns — same entries, same bits — hitting the same
// memo slots.
func TestPreparedBitIdenticalToRun(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "Graph500.BottomStepUp")
	for iter := 0; iter < 4; iter++ {
		eval := Cached{Model: m, Cache: c}.Prepare(k, iter)
		for _, cfg := range hw.ConfigSpace() {
			got := eval(cfg)
			want := c.Run(m, k, iter, cfg) // must be a hit on the same slot
			if got != want {
				t.Fatalf("iter %d cfg %v: prepared path diverged", iter, cfg)
			}
		}
	}
	hits, misses := c.Stats()
	space := len(hw.ConfigSpace())
	// Graph500.BottomStepUp's phases repeat, so later iterations reuse
	// earlier entries; at minimum the paired Run calls must all hit.
	if int(misses) > 4*space || int(hits) < 4*space {
		t.Fatalf("prepared path missed the shared memo: %d hits, %d misses", hits, misses)
	}
}

// TestRunAndPrepareShareSlots: Run, RunHit and a Prepare evaluator read
// and fill the same slots, and Stats counts every probe exactly once.
func TestRunAndPrepareShareSlots(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	space := hw.ConfigSpace()
	half := len(space) / 2

	// Run fills the first half; the evaluator then hits there and fills
	// the second half.
	for _, cfg := range space[:half] {
		c.Run(m, k, 0, cfg)
	}
	eval := c.Prepare(m, k, 0)
	for _, cfg := range space {
		eval(cfg)
	}
	if hits, misses := c.Stats(); hits != uint64(half) || misses != uint64(len(space)) {
		t.Fatalf("after Run then Prepare: hits=%d misses=%d, want %d/%d", hits, misses, half, len(space))
	}
	// Every slot is now filled, whichever path filled it.
	for _, cfg := range space {
		if _, hit := c.RunHit(m, k, 0, cfg); !hit {
			t.Fatalf("RunHit missed %v after the evaluator filled it", cfg)
		}
	}
	if hits, misses := c.Stats(); hits != uint64(half+len(space)) || misses != uint64(len(space)) {
		t.Fatalf("after RunHit pass: hits=%d misses=%d, want %d/%d", hits, misses, half+len(space), len(space))
	}
	if n := c.Len(); n != len(space) {
		t.Fatalf("Len() = %d, want %d", n, len(space))
	}
}

// TestFilledSlotImmutable: a filled slot is read without a lock, so a
// second fill (a concurrent miss on the same slot) must not write it.
func TestFilledSlotImmutable(t *testing.T) {
	var s slab
	first, second := gpusim.Result{Time: 1}, gpusim.Result{Time: 2}
	s.put(3, first)
	s.put(3, second)
	if r, ok := s.get(3); !ok || r != first {
		t.Fatalf("slot 3 = %+v, %v after a second fill; want the first result", r, ok)
	}
	if _, ok := s.get(4); ok {
		t.Fatal("neighbouring slot reads as filled")
	}
}

// TestOffGridConfigUncached: a configuration off the hw grid has no slot,
// so it falls through to the model, counts as a miss, and stores nothing.
func TestOffGridConfigUncached(t *testing.T) {
	m := gpusim.Default()
	c := New()
	k := testKernel(t, "LUD.Internal")
	off := hw.MaxConfig()
	off.Compute.CUs = 30
	want := m.Run(k, 0, off)
	eval := c.Prepare(m, k, 0)
	for i := 0; i < 2; i++ {
		if got, hit := c.RunHit(m, k, 0, off); hit || got != want {
			t.Fatalf("RunHit(off-grid) = %+v, %v; want the model's result, false", got, hit)
		}
		if got := eval(off); got != want {
			t.Fatalf("prepared off-grid probe = %+v, want %+v", got, want)
		}
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("Len() = %d after off-grid probes, want 0", n)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("off-grid probes: hits=%d misses=%d, want 0/4", hits, misses)
	}
}

// TestNaNIdentityNotMemoized: a NaN kernel field or model calibration
// makes the slab identity unequal to itself, so it could never be found
// again; such probes run uncached rather than allocating a slab each.
func TestNaNIdentityNotMemoized(t *testing.T) {
	k := *testKernel(t, "LUD.Internal")
	k.SerialCycles = math.NaN()
	nanModel := gpusim.Default()
	nanModel.MemLatency = math.NaN()
	cfg := hw.MaxConfig()
	pp := power.DefaultParams()
	for _, tc := range []struct {
		name string
		m    *gpusim.Model
		k    *workloads.Kernel
	}{
		{"NaN kernel", gpusim.Default(), &k},
		{"NaN model", nanModel, testKernel(t, "LUD.Internal")},
	} {
		c := New()
		want := tc.m.Run(tc.k, 0, cfg)
		for i := 0; i < 3; i++ {
			if got, hit := c.RunHit(tc.m, tc.k, 0, cfg); hit || !bitIdentical(got, want) {
				t.Fatalf("%s: RunHit = %+v, %v; want the model's result, false", tc.name, got, hit)
			}
		}
		c.StoreDecision(tc.m, pp, tc.k, 0, 0, 448, cfg)
		if _, ok := c.Decision(tc.m, pp, tc.k, 0, 0, 448); ok {
			t.Fatalf("%s: decision was memoized", tc.name)
		}
		if n, slabs := c.Len(), len(c.slabs); n != 0 || slabs != 0 {
			t.Fatalf("%s: left %d results in %d slabs, want none", tc.name, n, slabs)
		}
	}
}

// bitIdentical compares results by their printed form, which is exact
// for every float and, unlike ==, treats a NaN field as equal to itself.
func bitIdentical(a, b gpusim.Result) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// TestPreparedNilCacheDegradesToModel mirrors For's nil-cache contract.
func TestPreparedNilCacheDegradesToModel(t *testing.T) {
	m := gpusim.Default()
	k := testKernel(t, "LUD.Internal")
	eval := Cached{Model: m}.Prepare(k, 0)
	cfg := hw.MaxConfig()
	if got, want := eval(cfg), m.Run(k, 0, cfg); got != want {
		t.Fatalf("nil-cache prepared path diverged")
	}
}

// BenchmarkDecisionHitParallel measures decision-memo hit throughput
// under parallelism — the path every repeat-invocation sweep takes.
func BenchmarkDecisionHitParallel(b *testing.B) {
	m := gpusim.Default()
	pp := power.DefaultParams()
	c := New()
	kernels := workloads.AllKernels()
	for _, k := range kernels {
		c.StoreDecision(m, pp, k, 0, 0, 448, hw.MaxConfig())
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := kernels[i%len(kernels)]
			i++
			if _, ok := c.Decision(m, pp, k, 0, 0, 448); !ok {
				b.Fatal("miss on warmed memo")
			}
		}
	})
}
