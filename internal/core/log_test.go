package core

import (
	"testing"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/sensitivity"
)

func TestDecisionLogRecordsEveryBoundary(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "Sort.BottomScan")
	const n = 20
	drive(c, k, n)
	log := c.Log()
	if len(log) != n {
		t.Fatalf("log has %d entries, want %d", len(log), n)
	}
	kinds := map[ActionKind]int{}
	for i, a := range log {
		if a.Kernel != k.Name {
			t.Errorf("entry %d kernel = %q", i, a.Kernel)
		}
		if !a.From.Valid() || !a.To.Valid() {
			t.Errorf("entry %d has invalid configs", i)
		}
		if a.Proxy <= 0 {
			t.Errorf("entry %d proxy = %v", i, a.Proxy)
		}
		kinds[a.Kind]++
	}
	if kinds[ActionCG] == 0 {
		t.Error("no CG action logged")
	}
	if kinds[ActionFG] == 0 {
		t.Error("no FG action logged")
	}
	// Once converged, the tail of the log should be holds.
	if last := log[len(log)-1]; last.Kind != ActionHold {
		t.Errorf("last action = %v, want hold after convergence", last.Kind)
	}
}

func TestDecisionLogKindsMatchTransitions(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	k := kernelByName(t, "MaxFlops.Main")
	drive(c, k, 15)
	for i, a := range c.Log() {
		changed := a.From != a.To
		switch a.Kind {
		case ActionHold:
			if changed {
				t.Errorf("entry %d: hold but config changed %v -> %v", i, a.From, a.To)
			}
		case ActionCG, ActionFG:
			if !changed {
				t.Errorf("entry %d: %v but config unchanged", i, a.Kind)
			}
		}
	}
}

func TestDecisionLogBounded(t *testing.T) {
	c := New(Options{Predictor: predictor()})
	sim := gpusim.Default()
	k := kernelByName(t, "Stencil.Step")
	for i := 0; i < maxLogEntries+50; i++ {
		cfg := c.Decide(k.Name, i)
		c.Observe(k.Name, i, sim.Run(k, i, cfg))
	}
	if got := len(c.Log()); got != maxLogEntries {
		t.Errorf("log length = %d, want bounded at %d", got, maxLogEntries)
	}
}

func TestActionKindStrings(t *testing.T) {
	want := map[ActionKind]string{
		ActionHold: "hold", ActionCG: "cg", ActionFG: "fg",
		ActionRevert: "revert", ActionFreeze: "freeze", ActionKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestFreezeAppearsInLogForDitheringTunable(t *testing.T) {
	// Streamcluster's CU probes fail repeatedly; the dithering budget
	// must eventually freeze and the log must show it.
	c := New(Options{Predictor: predictor()})
	drive(c, kernelByName(t, "Streamcluster.PGain"), 40)
	sawFreeze := false
	for _, a := range c.Log() {
		if a.Kind == ActionFreeze {
			sawFreeze = true
		}
	}
	if !sawFreeze {
		t.Error("no freeze action logged for a dithering kernel")
	}
	_ = hw.MaxConfig()
}

// TestBinsNameTable pins the decision span's table-backed "bins"
// attribute to the concatenation it replaced, for every in-range
// classification and off it, and holds the in-range path
// allocation-free.
func TestBinsNameTable(t *testing.T) {
	concat := func(b sensitivity.Bins) string {
		return b.CUs.String() + "/" + b.CUFreq.String() + "/" + b.MemFreq.String()
	}
	all := []sensitivity.Bin{sensitivity.Low, sensitivity.Med, sensitivity.High}
	var grid []sensitivity.Bins
	for _, c := range all {
		for _, f := range all {
			for _, m := range all {
				grid = append(grid, sensitivity.Bins{CUs: c, CUFreq: f, MemFreq: m})
			}
		}
	}
	for _, b := range append(grid,
		sensitivity.Bins{CUs: 3},
		sensitivity.Bins{CUFreq: -1},
		sensitivity.Bins{CUs: sensitivity.High, MemFreq: 7}) {
		if got, want := binsName(b), concat(b); got != want {
			t.Errorf("binsName(%+v) = %q, want %q", b, got, want)
		}
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range grid {
			sink = binsName(b)
		}
	}); n != 0 {
		t.Errorf("in-range binsName allocates %.1f times per pass, want 0", n)
	}
	_ = sink
}
