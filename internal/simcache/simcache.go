// Package simcache memoizes the interval simulator. The paper's entire
// methodology is exhaustive re-simulation: sensitivity training sweeps
// every kernel across all 448 hardware configurations, the Section 7
// oracle re-sweeps the space for every kernel invocation, and every
// ablation replays the same suite — so the same (kernel, iteration,
// configuration) triples are evaluated over and over. The simulator is
// pure, which makes its results perfectly memoizable: a cached run is
// bit-identical to an uncached one.
//
// The memo is a set of slabs, one per simulation identity: the model's
// calibration constants, every numeric field of the kernel descriptor,
// and the phase resolved for the iteration — exactly what
// gpusim.(*Model).Run reads besides the configuration. Distinct Model
// calibrations and same-named kernels therefore never collide, and
// iterations that resolve to the same phase share one slab
// (phase-stable kernels hit after a single iteration). A slab holds one
// result slot per configuration, indexed by hw.Config.Index, plus a
// filled bitmap; the paper suite fills 33 slabs × 448 slots.
//
// The identity is looked up once per Run, RunHit, Decision and Prepare
// — never per swept configuration, so a probe inside a Prepare
// evaluator does no hashing. Hits are lock-free: an atomic load of the
// slot's filled bit, then a read of the slot. Fills take the slab's
// mutex and write the result before setting its bit, so a reader that
// sees the bit sees the whole result.
//
// The cache memoizes at two granularities: individual simulation
// results (Run), and whole sweep decisions (Decision/StoreDecision) —
// the argmin configuration an oracle's exhaustive search produces for a
// kernel invocation. The decision level is what makes repeat-invocation
// sweeps cheap: one lookup instead of re-scoring the entire
// configuration space.
package simcache

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"harmonia/internal/gpusim"
	"harmonia/internal/hw"
	"harmonia/internal/power"
	"harmonia/internal/workloads"
)

// identity names one slab: the model calibration plus the comparable
// projection of a kernel descriptor — every field gpusim.(*Model).Run
// reads, with the per-iteration phase function resolved to its Phase
// value (Phase is three float64s and comparable). gpusim.Model is a
// struct of calibration floats, so embedding its value keeps two
// differently calibrated simulators from ever sharing a slab.
type identity struct {
	model        gpusim.Model
	name         string
	wgSize, wgs  int
	valu, salu   float64
	fetch, write float64
	bpf, bpw     float64
	vgprs, sgprs int
	lds          int
	div, l2hit   float64
	l2thrash     float64
	rowhit, mlp  float64
	serial       float64
	launch       float64
	phase        workloads.Phase
}

func identityOf(m *gpusim.Model, k *workloads.Kernel, iter int) identity {
	phase := k.PhaseFor(iter)
	return identity{
		model:  *m,
		name:   k.Name,
		wgSize: k.WorkgroupSize, wgs: k.Workgroups,
		valu: k.VALUPerWI, salu: k.SALUPerWI,
		fetch: k.FetchPerWI, write: k.WritePerWI,
		bpf: k.BytesPerFetch, bpw: k.BytesPerWrite,
		vgprs: k.VGPRs, sgprs: k.SGPRs, lds: k.LDSBytes,
		div: k.DivergenceFor(phase), l2hit: k.L2Hit,
		l2thrash: k.L2Thrash,
		rowhit:   k.RowHit, mlp: k.MLPPerWave,
		serial: k.SerialCycles,
		launch: k.LaunchOverhead,
		phase:  phase,
	}
}

// decisionKey identifies one exhaustive-sweep argmin within a slab: the
// sweep's output is a pure function of the slab's identity, the power
// calibration, the objective, and the configuration space swept. The
// space is hw.ConfigSpace() for every oracle; its length is kept as a
// guard against a future variant sweeping a subset.
type decisionKey struct {
	pow       power.Params
	objective int
	spaceLen  int
}

// slab memoizes one identity across the configuration space. filled
// bit i is set, under mu, only after results[i] is written, and never
// cleared; a slot whose bit is set is immutable and read without a lock.
type slab struct {
	filled  [(hw.SpaceSize + 63) / 64]atomic.Uint64
	results [hw.SpaceSize]gpusim.Result

	mu        sync.Mutex
	decisions map[decisionKey]hw.Config
}

// get returns slot i when it is filled.
func (s *slab) get(i int) (gpusim.Result, bool) {
	if s.filled[i/64].Load()&(1<<(i%64)) == 0 {
		return gpusim.Result{}, false
	}
	return s.results[i], true
}

// put fills slot i unless a concurrent miss already did; both computed
// the same result, and a filled slot may be under lock-free readers.
func (s *slab) put(i int, r gpusim.Result) {
	w := &s.filled[i/64]
	bit := uint64(1) << (i % 64)
	s.mu.Lock()
	if old := w.Load(); old&bit == 0 {
		s.results[i] = r
		w.Store(old | bit)
	}
	s.mu.Unlock()
}

// Cache is a concurrency-safe memo of simulation results. The zero
// value is not usable; construct with New. A Cache may back any number
// of Cached runners over any number of models simultaneously.
//
// Beyond per-invocation results the cache holds a second, coarser level:
// memoized sweep decisions (the argmin configuration of an exhaustive
// oracle sweep). Per-result memoization cannot beat the analytic
// interval model on wall-clock — a model evaluation costs about as much
// as a memo lookup — but a decision entry replaces an entire ~450-point
// sweep (simulation, power rails, and pool scheduling) with one lookup,
// which is where the repeat-invocation speedup comes from.
type Cache struct {
	mu    sync.RWMutex
	slabs map[identity]*slab

	hits   atomic.Uint64
	misses atomic.Uint64

	decHits   atomic.Uint64
	decMisses atomic.Uint64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{slabs: make(map[identity]*slab)}
}

// slab returns the slab for m's kernel k at iteration iter, creating it
// when create is set. It returns nil for an identity with a NaN field:
// such a key never equals itself, so a stored slab could never be found
// again and every probe would allocate another.
func (c *Cache) slab(m *gpusim.Model, k *workloads.Kernel, iter int, create bool) *slab {
	id := identityOf(m, k, iter)
	if id != id {
		return nil
	}
	c.mu.RLock()
	s := c.slabs[id]
	c.mu.RUnlock()
	if s != nil || !create {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s = c.slabs[id]; s == nil {
		s = &slab{decisions: make(map[decisionKey]hw.Config)}
		c.slabs[id] = s
	}
	return s
}

// lookup is the one read path behind Run, RunHit and Prepare: slab s's
// result for cfg, or run(cfg) stored into s on a miss. A nil slab or an
// off-grid configuration falls through to run uncached, as a miss.
func (c *Cache) lookup(s *slab, cfg hw.Config, run func(hw.Config) gpusim.Result) (gpusim.Result, bool) {
	i, onGrid := cfg.Index()
	if s != nil && onGrid {
		if r, ok := s.get(i); ok {
			c.hits.Add(1)
			return r, true
		}
	}
	c.misses.Add(1)
	r := run(cfg)
	if s != nil && onGrid {
		s.put(i, r)
	}
	return r, false
}

// Run returns the memoized result of m.Run(k, iter, cfg), simulating
// and storing it on a miss. Results are bit-identical to the uncached
// call: on a miss the model's own Run supplies the stored value.
func (c *Cache) Run(m *gpusim.Model, k *workloads.Kernel, iter int, cfg hw.Config) gpusim.Result {
	r, _ := c.RunHit(m, k, iter, cfg)
	return r
}

// RunHit is Run, additionally reporting whether the result came from
// the memo (true) or a fresh simulation (false). The result value is
// identical either way; the flag exists so the tracing layer can
// annotate simulate spans with cache behaviour without touching it.
func (c *Cache) RunHit(m *gpusim.Model, k *workloads.Kernel, iter int, cfg hw.Config) (gpusim.Result, bool) {
	return c.lookup(c.slab(m, k, iter, true), cfg, func(cfg hw.Config) gpusim.Result { return m.Run(k, iter, cfg) })
}

// Prepare returns a single-invocation evaluator for m's kernel k at
// iteration iter whose results are bit-identical to Run's. The slab is
// resolved once, so a probe is an index computation and a bitmap load;
// misses fall through to the model's own hoisted Invariants. The
// evaluator is safe for concurrent sweep workers.
func (c *Cache) Prepare(m *gpusim.Model, k *workloads.Kernel, iter int) func(cfg hw.Config) gpusim.Result {
	s := c.slab(m, k, iter, true)
	run := m.Prepare(k, iter)
	return func(cfg hw.Config) gpusim.Result {
		r, _ := c.lookup(s, cfg, run)
		return r
	}
}

// Decision returns the memoized sweep argmin for the given simulator
// and power calibrations, kernel invocation, objective, and space size,
// if one has been stored. Iterations resolving to the same phase share
// an entry, so a phase-stable kernel pays for one sweep across all its
// invocations — and across every oracle sharing the cache.
func (c *Cache) Decision(m *gpusim.Model, pow power.Params, k *workloads.Kernel, iter, objective, spaceLen int) (hw.Config, bool) {
	var cfg hw.Config
	ok := false
	if s := c.slab(m, k, iter, false); s != nil {
		s.mu.Lock()
		cfg, ok = s.decisions[decisionKey{pow: pow, objective: objective, spaceLen: spaceLen}]
		s.mu.Unlock()
	}
	if ok {
		c.decHits.Add(1)
	} else {
		c.decMisses.Add(1)
	}
	return cfg, ok
}

// StoreDecision records a sweep argmin under the same key Decision
// reads. The sweep that produced cfg must be deterministic (the sweep
// layer breaks ties toward the earliest index), so concurrent callers
// racing to store the same key write the same value.
func (c *Cache) StoreDecision(m *gpusim.Model, pow power.Params, k *workloads.Kernel, iter, objective, spaceLen int, cfg hw.Config) {
	s := c.slab(m, k, iter, true)
	if s == nil {
		return
	}
	s.mu.Lock()
	s.decisions[decisionKey{pow: pow, objective: objective, spaceLen: spaceLen}] = cfg
	s.mu.Unlock()
}

// Stats reports the lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// DecisionStats reports the lifetime decision-memo hit and miss counts.
func (c *Cache) DecisionStats() (hits, misses uint64) {
	return c.decHits.Load(), c.decMisses.Load()
}

// Len returns the number of memoized results: filled slots, not slabs.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, s := range c.slabs {
		for i := range s.filled {
			n += bits.OnesCount64(s.filled[i].Load())
		}
	}
	return n
}

// Cached binds a model to a cache as a gpusim.Runner, the form the
// session, oracle, and sensitivity layers consume. A nil cache degrades
// to the raw model.
type Cached struct {
	Model *gpusim.Model
	Cache *Cache
}

// Run implements gpusim.Runner.
func (c Cached) Run(k *workloads.Kernel, iter int, cfg hw.Config) gpusim.Result {
	if c.Cache == nil {
		return c.Model.Run(k, iter, cfg)
	}
	return c.Cache.Run(c.Model, k, iter, cfg)
}

// RunHit is Run plus a memo-hit flag (always false without a cache);
// results are bit-identical to Run's.
func (c Cached) RunHit(k *workloads.Kernel, iter int, cfg hw.Config) (gpusim.Result, bool) {
	if c.Cache == nil {
		return c.Model.Run(k, iter, cfg), false
	}
	return c.Cache.RunHit(c.Model, k, iter, cfg)
}

// Prepare implements gpusim.PreparedRunner: the returned evaluator
// probes the memo's slab for this invocation and falls through to the
// model's hoisted Invariants on a miss, bit-identical to Run either way.
func (c Cached) Prepare(k *workloads.Kernel, iter int) func(cfg hw.Config) gpusim.Result {
	if c.Cache == nil {
		return c.Model.Prepare(k, iter)
	}
	return c.Cache.Prepare(c.Model, k, iter)
}

var _ gpusim.PreparedRunner = Cached{}

// For returns a runner that memoizes m through cache; a nil cache
// returns m itself, so callers can thread an optional cache without
// branching.
func For(m *gpusim.Model, cache *Cache) gpusim.Runner {
	if cache == nil {
		return m
	}
	return Cached{Model: m, Cache: cache}
}
