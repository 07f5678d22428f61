package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"harmonia/internal/eventsim"
	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

// eventCap is the workgroup cap of the event-driven runs: half of
// cmd/harmonia-validate's default of 400, so that a pass over the grid
// (about 6 s) repeats within one run. All 45 points agree within ±25% at
// 200 too (worst ratios 0.84 / 1.26).
const eventCap = 200

// point is one (kernel, configuration) cell of the validation grid.
type point struct {
	kernel workloads.Kernel // truncated to eventCap workgroups, no phases
	cfg    hw.Config
	want   uint64 // expected eventsim/gpusim time ratio, as float64 bits
}

// validationGrid is cmd/harmonia-validate's grid: 9 kernels × 5
// configurations, kernel-major.
func validationGrid() []point {
	names := []string{
		"MaxFlops.Main", "DeviceMemory.Stream", "Sort.BottomScan",
		"CoMD.AdvanceVelocity", "CoMD.EAM_Force_1", "Stencil.Step",
		"SPMV.CSRVector", "miniFE.Dot", "Streamcluster.PGain",
	}
	configs := []hw.Config{
		hw.MaxConfig(),
		{Compute: hw.ComputeConfig{CUs: hw.MaxCUs, Freq: hw.MaxCUFreq}, Memory: hw.MemConfig{BusFreq: hw.MinMemFreq}},
		{Compute: hw.ComputeConfig{CUs: hw.MaxCUs, Freq: hw.MinCUFreq}, Memory: hw.MemConfig{BusFreq: hw.MaxMemFreq}},
		hw.NewConfig(8, hw.MaxCUFreq, hw.MaxMemFreq),
		hw.NewConfig(16, 600, 925),
	}
	var grid []point
	for i, name := range names {
		var k workloads.Kernel
		for _, kk := range workloads.AllKernels() {
			if kk.Name == name {
				k = *kk
			}
		}
		k.Phases = nil
		if k.Workgroups > eventCap {
			k.Workgroups = eventCap
		}
		for j, cfg := range configs {
			grid = append(grid, point{kernel: k, cfg: cfg, want: ratioWant[i*len(configs)+j]})
		}
	}
	return grid
}

// ratioWant holds the seed code's per-point time ratios at eventCap, in
// grid order, as float64 bits.
var ratioWant = [45]uint64{
	0x3ff4114dc9a0b2de, // MaxFlops.Main 32CU@1000MHz/mem@1375MHz 1.2542
	0x3ff4121f1b3b25b7, // MaxFlops.Main 32CU@1000MHz/mem@475MHz 1.2544
	0x3ff424a681e3e357, // MaxFlops.Main 32CU@300MHz/mem@1375MHz 1.2589
	0x3ff13ac247aeb7d3, // MaxFlops.Main 8CU@1000MHz/mem@1375MHz 1.0768
	0x3ff1d35bd13210be, // MaxFlops.Main 16CU@600MHz/mem@925MHz 1.1141
	0x3ff027f125611661, // DeviceMemory.Stream 32CU@1000MHz/mem@1375MHz 1.0098
	0x3ff02033d932c423, // DeviceMemory.Stream 32CU@1000MHz/mem@475MHz 1.0079
	0x3ff000e7ce09d3c4, // DeviceMemory.Stream 32CU@300MHz/mem@1375MHz 1.0002
	0x3ff094995ca2e32f, // DeviceMemory.Stream 8CU@1000MHz/mem@1375MHz 1.0363
	0x3ff06551a4dfd377, // DeviceMemory.Stream 16CU@600MHz/mem@925MHz 1.0247
	0x3fefaedba88d08d0, // Sort.BottomScan 32CU@1000MHz/mem@1375MHz 0.9901
	0x3fefdad984fae409, // Sort.BottomScan 32CU@1000MHz/mem@475MHz 0.9955
	0x3fef4c7f7494bb97, // Sort.BottomScan 32CU@300MHz/mem@1375MHz 0.9781
	0x3feaf886757bd963, // Sort.BottomScan 8CU@1000MHz/mem@1375MHz 0.8428
	0x3fed1f8ee9785594, // Sort.BottomScan 16CU@600MHz/mem@925MHz 0.9101
	0x3ff003d15bd598d8, // CoMD.AdvanceVelocity 32CU@1000MHz/mem@1375MHz 1.0009
	0x3fefdb5a8113a536, // CoMD.AdvanceVelocity 32CU@1000MHz/mem@475MHz 0.9955
	0x3fef2094f2094f20, // CoMD.AdvanceVelocity 32CU@300MHz/mem@1375MHz 0.9727
	0x3ff0bb5ca513559c, // CoMD.AdvanceVelocity 8CU@1000MHz/mem@1375MHz 1.0457
	0x3ff030283631d2b6, // CoMD.AdvanceVelocity 16CU@600MHz/mem@925MHz 1.0118
	0x3fefc782688569f1, // CoMD.EAM_Force_1 32CU@1000MHz/mem@1375MHz 0.9931
	0x3fed4ca7f39c69f7, // CoMD.EAM_Force_1 32CU@1000MHz/mem@475MHz 0.9156
	0x3fefe96c29204b92, // CoMD.EAM_Force_1 32CU@300MHz/mem@1375MHz 0.9972
	0x3fed72537d0dd049, // CoMD.EAM_Force_1 8CU@1000MHz/mem@1375MHz 0.9202
	0x3fef069632e945a4, // CoMD.EAM_Force_1 16CU@600MHz/mem@925MHz 0.9696
	0x3ff0a726eafc6eef, // Stencil.Step 32CU@1000MHz/mem@1375MHz 1.0408
	0x3ff082b4443a8800, // Stencil.Step 32CU@1000MHz/mem@475MHz 1.0319
	0x3ff0dc8a6862337c, // Stencil.Step 32CU@300MHz/mem@1375MHz 1.0538
	0x3ff073578db28d2e, // Stencil.Step 8CU@1000MHz/mem@1375MHz 1.0282
	0x3ff03fcaf86a206a, // Stencil.Step 16CU@600MHz/mem@925MHz 1.0156
	0x3ff013a448fb39cd, // SPMV.CSRVector 32CU@1000MHz/mem@1375MHz 1.0048
	0x3ff01632e17cbdae, // SPMV.CSRVector 32CU@1000MHz/mem@475MHz 1.0054
	0x3feece7661512654, // SPMV.CSRVector 32CU@300MHz/mem@1375MHz 0.9627
	0x3ff1435b1435b143, // SPMV.CSRVector 8CU@1000MHz/mem@1375MHz 1.0789
	0x3fef6c1f9e4fdc0b, // SPMV.CSRVector 16CU@600MHz/mem@925MHz 0.9819
	0x3ff044162acd4c12, // miniFE.Dot 32CU@1000MHz/mem@1375MHz 1.0166
	0x3ff05860200d66eb, // miniFE.Dot 32CU@1000MHz/mem@475MHz 1.0216
	0x3ff012078afe117a, // miniFE.Dot 32CU@300MHz/mem@1375MHz 1.0044
	0x3ff125fc70f3da8e, // miniFE.Dot 8CU@1000MHz/mem@1375MHz 1.0718
	0x3ff091e972429a9c, // miniFE.Dot 16CU@600MHz/mem@925MHz 1.0356
	0x3ff0567a2ccf7db0, // Streamcluster.PGain 32CU@1000MHz/mem@1375MHz 1.0211
	0x3fee16cac43c6b3e, // Streamcluster.PGain 32CU@1000MHz/mem@475MHz 0.9403
	0x3feed914e720df4a, // Streamcluster.PGain 32CU@300MHz/mem@1375MHz 0.9640
	0x3fec2ef0e399892d, // Streamcluster.PGain 8CU@1000MHz/mem@1375MHz 0.8807
	0x3fee495f0b8eb363, // Streamcluster.PGain 16CU@600MHz/mem@925MHz 0.9465
}

// validator runs grid points.
type validator struct {
	ev *eventsim.Sim
	iv *gpusim.Model
}

// measure runs one point through both simulators, inside spans when led
// is non-nil, and returns the eventsim result and the time ratio.
func (v validator) measure(p *point, led *ledger) (eventsim.Result, float64) {
	led.begin("eventsim")
	er := v.ev.Run(&p.kernel, 0, p.cfg, eventCap)
	led.end()
	led.begin("gpusim")
	ir := v.iv.Run(&p.kernel, 0, p.cfg)
	led.end()
	return er, er.Time / ir.Time
}

// check compares a point's ratio with the seed code's.
func (p *point) check(ratio float64) error {
	if math.Float64bits(ratio) != p.want {
		return fmt.Errorf("%s at %v: ratio %v, want %v", p.kernel.Name, p.cfg, ratio, math.Float64frombits(p.want))
	}
	return nil
}

// agrees reports whether a ratio is within the ±25% band (0.75, 1.33).
func agrees(ratio float64) bool { return ratio > 0.75 && ratio < 1.33 }

// warm is the grid cells each set-up runs once: Stencil.Step's five
// configurations.
var warm = [2]int{25, 30}

// validateEventsim runs the validate-eventsim workload: whole passes
// over the grid in a seed-shuffled order, at least one.
func validateEventsim(cfg config) (*outcome, error) {
	o := &outcome{}
	var grid []point
	v := validator{ev: eventsim.New(), iv: gpusim.Default()}
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		grid = validationGrid()
		for i := warm[0]; i < warm[1]; i++ {
			if _, r := v.measure(&grid[i], nil); grid[i].check(r) != nil {
				return nil, fmt.Errorf("set-up: %w", grid[i].check(r))
			}
		}
		o.setupS = append(o.setupS, time.Since(t).Seconds())
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.traced {
		return o, tracedValidate(cfg, v, grid, rng, o)
	}
	ratios := make([]float64, len(grid))
	runtime.GC()
	w := openWindow()
	start := time.Now()
	budget := seconds(cfg.seconds)
	for pass := 0; ; pass++ {
		// Another pass runs while it is expected to end within half a
		// pass of the budget, so the window is the whole number of passes
		// nearest to --seconds.
		if e := time.Since(start); pass > 0 && e+e/time.Duration(2*pass) > budget {
			break
		}
		for _, i := range rng.Perm(len(grid)) {
			t := time.Now()
			_, r := v.measure(&grid[i], nil)
			d := time.Since(t)
			ratios[i] = r
			if err := grid[i].check(r); err != nil {
				o.fail(err.Error())
				continue
			}
			o.latMS = append(o.latMS, ms(d))
		}
	}
	o.window = time.Since(start)
	o.rt = w.close()
	o.notes = append(o.notes, agreementNote(ratios))
	return o, nil
}

// agreementNote summarizes a pass's ratios as harmonia-validate does.
func agreementNote(ratios []float64) string {
	lo, hi, in := 1.0, 1.0, 0
	for _, r := range ratios {
		if agrees(r) {
			in++
		}
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	return fmt.Sprintf("%d/%d points within ±25%% at cap %d (worst ratios %.2f / %.2f)", in, len(ratios), eventCap, lo, hi)
}

// tracedValidate is validate-eventsim's traced run: each point runs
// plain and inside spans, in alternating order, until the window ends.
func tracedValidate(cfg config, v validator, grid []point, rng *rand.Rand, o *outcome) error {
	led := newLedger()
	var plainMS, tracedMS float64
	var cycles int64
	in, points := 0, 0
	runtime.GC()
	w := openWindow()
	start := time.Now()
	deadline := start.Add(seconds(cfg.seconds))
	for n := 0; time.Now().Before(deadline); n++ {
		i := rng.Intn(len(grid))
		p := &grid[i]
		t0 := time.Now()
		var er eventsim.Result
		var r float64
		if n%2 == 0 {
			_, r = v.measure(p, nil)
			t1 := time.Now()
			er, _ = v.measure(p, led)
			plainMS += ms(t1.Sub(t0))
			tracedMS += ms(time.Since(t1))
		} else {
			er, r = v.measure(p, led)
			t1 := time.Now()
			v.measure(p, nil)
			tracedMS += ms(t1.Sub(t0))
			plainMS += ms(time.Since(t1))
		}
		if err := p.check(r); err != nil {
			o.fail(err.Error())
			continue
		}
		o.latMS = append(o.latMS, ms(time.Since(t0)))
		cycles += er.Cycles
		points++
		if agrees(r) {
			in++
		}
	}
	o.window = time.Since(start)
	o.rt = w.close()
	if points == 0 {
		return fmt.Errorf("no point fit in %gs", cfg.seconds)
	}
	n := float64(points)
	layers := emptyLayers()
	set := func(k string, v float64) { layers[k] = metric{v, layerUnits[k]} }
	set("eventsim.point_ms", led.ms("eventsim", true)/n)
	set("eventsim.cycles_per_s", float64(cycles)/(led.ms("eventsim", true)/1e3))
	set("gpusim.invocations", led.calls("gpusim")/n)
	set("gpusim.self_ms", led.ms("gpusim", true)/n)
	set("model_agreement_share", float64(in)/n)
	set("ledger.overhead_share", tracedMS/plainMS-1)
	o.layers = layers
	return nil
}
