package main

import (
	"time"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/policy"
	"harmonia/internal/simcache"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
	"harmonia/internal/workloads"
)

// ledger records spans around calls into the program's layers and
// folds them into per-layer call counts, total time and self time (a
// span minus the part of it its child spans cover).
//
// It keeps one span stack, so every call it wraps must happen on one
// goroutine: the traced runs drive the layers serially (one worker,
// one client) for exactly that reason. A nil *ledger records nothing.
type ledger struct {
	stack  []frame
	layers map[string]*layerStat
	// miss and hit time the calls into a memoized runner by outcome,
	// for splitting the memo's own cost from the simulation behind it.
	missCalls, hitCalls int64
	missTime, hitTime   time.Duration
}

type frame struct {
	layer string
	start time.Time
	child time.Duration
}

// layerStat is one layer's accumulated spans.
type layerStat struct {
	calls       int64
	total, self time.Duration
}

func newLedger() *ledger { return &ledger{layers: map[string]*layerStat{}} }

// begin opens a span for layer under the currently open span.
func (l *ledger) begin(layer string) {
	if l == nil {
		return
	}
	//lint:ignore nondeterminism a span's start is a wall-clock reading by design; the spans only time calls and never feed a result
	l.stack = append(l.stack, frame{layer: layer, start: time.Now()})
}

// end closes the innermost open span and returns its duration.
func (l *ledger) end() time.Duration {
	if l == nil {
		return 0
	}
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	//lint:ignore nondeterminism see begin: the span's end is a wall-clock reading by design
	d := time.Since(f.start)
	st := l.stat(f.layer)
	st.calls++
	st.total += d
	st.self += d - f.child
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
	}
	return d
}

func (l *ledger) stat(layer string) *layerStat {
	st := l.layers[layer]
	if st == nil {
		st = &layerStat{}
		l.layers[layer] = st
	}
	return st
}

// ms returns a layer's total (self=false) or self time in milliseconds.
func (l *ledger) ms(layer string, self bool) float64 {
	st := l.layers[layer]
	if st == nil {
		return 0
	}
	if self {
		return float64(st.self) / 1e6
	}
	return float64(st.total) / 1e6
}

// calls returns how many spans a layer closed.
func (l *ledger) calls(layer string) float64 {
	if st := l.layers[layer]; st != nil {
		return float64(st.calls)
	}
	return 0
}

// simSplit splits the "simcache" layer's self time into the memo's own
// cost and the simulation behind it. simcache.Cached hides its
// *gpusim.Model behind a concrete type, so no decorator can sit between
// the two; instead a miss is charged the mean hit cost as memo work and
// the rest as simulation (the miss penalty). Both results are in ms.
func (l *ledger) simSplit() (memoMS, simMS float64) {
	self := l.ms("simcache", true)
	if l.missCalls == 0 {
		return self, 0
	}
	probe := 0.0
	if l.hitCalls > 0 {
		probe = float64(l.hitTime) / float64(l.hitCalls)
	}
	sim := (float64(l.missTime) - probe*float64(l.missCalls)) / 1e6
	if sim < 0 {
		sim = 0
	}
	return self - sim, sim
}

// runner decorates a gpusim runner with spans of the given layer. When
// cache is the memo behind r, every call is also classified as a hit or
// a miss by the memo's own counters (exact here: calls are serial). The
// decorator offers RunHit exactly when r does, since the session probes
// for it to annotate traced runs.
func (l *ledger) runner(layer string, r gpusim.PreparedRunner, cache *simcache.Cache) gpusim.PreparedRunner {
	s := &spanRunner{led: l, layer: layer, inner: r, cache: cache}
	if hr, ok := r.(hitRunner); ok {
		return &spanHitRunner{spanRunner: s, hit: hr}
	}
	return s
}

// hitRunner is the optional runner interface simcache.Cached implements.
type hitRunner interface {
	RunHit(k *workloads.Kernel, iter int, cfg hw.Config) (gpusim.Result, bool)
}

type spanRunner struct {
	led   *ledger
	layer string
	inner gpusim.PreparedRunner
	cache *simcache.Cache
}

func (s *spanRunner) Run(k *workloads.Kernel, iter int, cfg hw.Config) gpusim.Result {
	s.led.begin(s.layer)
	m0 := s.misses()
	r := s.inner.Run(k, iter, cfg)
	s.note(s.led.end(), m0)
	return r
}

func (s *spanRunner) Prepare(k *workloads.Kernel, iter int) func(cfg hw.Config) gpusim.Result {
	run := s.inner.Prepare(k, iter)
	return func(cfg hw.Config) gpusim.Result {
		s.led.begin(s.layer)
		m0 := s.misses()
		r := run(cfg)
		s.note(s.led.end(), m0)
		return r
	}
}

type spanHitRunner struct {
	*spanRunner
	hit hitRunner
}

func (s *spanHitRunner) RunHit(k *workloads.Kernel, iter int, cfg hw.Config) (gpusim.Result, bool) {
	s.led.begin(s.layer)
	m0 := s.misses()
	r, hit := s.hit.RunHit(k, iter, cfg)
	s.note(s.led.end(), m0)
	return r, hit
}

func (s *spanRunner) misses() uint64 {
	if s.cache == nil {
		return 0
	}
	_, m := s.cache.Stats()
	return m
}

func (s *spanRunner) note(d time.Duration, missesBefore uint64) {
	if s.cache == nil {
		return
	}
	if s.misses() != missesBefore {
		s.led.missCalls++
		s.led.missTime += d
	} else {
		s.led.hitCalls++
		s.led.hitTime += d
	}
}

// policy decorates a policy with spans of the given layer around Decide
// and Observe. It forwards the optional tracing and timeline interfaces
// the session probes for, so a decorated policy annotates runs exactly
// as the bare one does.
func (l *ledger) policy(layer string, p policy.Policy) policy.Policy {
	return &spanPolicy{led: l, layer: layer, inner: p}
}

type spanPolicy struct {
	led   *ledger
	layer string
	inner policy.Policy
}

func (s *spanPolicy) Name() string { return s.inner.Name() }

func (s *spanPolicy) Decide(kernel string, iter int) hw.Config {
	s.led.begin(s.layer)
	defer s.led.end()
	return s.inner.Decide(kernel, iter)
}

func (s *spanPolicy) Observe(kernel string, iter int, res gpusim.Result) {
	s.led.begin(s.layer)
	defer s.led.end()
	s.inner.Observe(kernel, iter, res)
}

func (s *spanPolicy) AttachTracer(rec *trace.Recorder) {
	if t, ok := s.inner.(trace.Traceable); ok {
		t.AttachTracer(rec)
	}
}

func (s *spanPolicy) AttachTimeline(rec *timeline.Recorder) {
	if a, ok := s.inner.(timeline.Attachable); ok {
		a.AttachTimeline(rec)
	}
}

func (s *spanPolicy) TimelineDecision(kernel string, iter int) (timeline.Detail, bool) {
	if a, ok := s.inner.(timeline.Annotator); ok {
		return a.TimelineDecision(kernel, iter)
	}
	return timeline.Detail{}, false
}
