// Package eventsim is a wavefront-granularity, cycle-driven simulator of
// the same GCN-class GPU that internal/gpusim models analytically. Where
// gpusim computes closed-form interval estimates (fast enough for the
// 448-configuration × 14-application factorials the experiments need),
// eventsim executes the machine: workgroups dispatch to compute units,
// resident wavefronts interleave vector issue with memory requests,
// misses queue at banked memory channels behind a clock-domain-crossing
// token bucket, and time emerges from the event loop.
//
// Its purpose is validation: the cross-checking tests in this package
// and in internal/gpusim assert that the two simulators agree on the
// behaviours Harmonia depends on — boundedness classification, balance
// knees, monotonicity in each tunable, occupancy-limited latency hiding,
// and the clock-domain crossing effect — so the interval model's speed
// does not come at the cost of unvalidated physics.
//
// Everything is deterministic: cache hits and divergence are spread with
// Bresenham-style error accumulation rather than random numbers.
//
// The cycle loop does per-cycle work only where state can change:
//
//   - A SIMD retires and refills its waves only when one of them may have
//     become done: its last issue, or a return that left it nothing in
//     flight.
//   - A SIMD's round-robin scan starts past the waves it already found
//     blocked (no pause left, at the MLP cap or only waiting on memory),
//     because only a return to one of them can unblock it.
//   - The loop jumps over quiescent cycles.
//
// A cycle is quiescent when no SIMD issued or retired, each resident SIMD
// either stalled or only counted down one wave's issue pause, and no
// request waits for a crossing token. Until the next return or the end
// of the shortest pause, every later cycle then repeats it exactly: no
// wave's counters or cursor move except the pauses, no request enters or
// leaves the crossing queue, the channels and the L2 hit spreader are
// untouched, and the returns heap is only read. The jump of k cycles
// therefore applies the repeated cycle's effects k times at once: k off
// each pause, k per stalled SIMD to StallCycles, and k to MemBusyCycles
// while returns are in flight. The crossing tokens are the exception:
// they are replayed as k sequential float adds, because with a
// non-integer rate such as 0.3 one multiply rounds differently and can
// shift a later drain by a cycle.
package eventsim

import (
	"math"

	"harmonia/internal/hw"
	"harmonia/internal/workloads"
)

// Params holds the machine constants of the event simulator. They mirror
// gpusim.Model's calibration so that the two simulators describe the
// same hardware.
type Params struct {
	// IssueCyclesPerVALU is how many cycles one wavefront VALU
	// instruction occupies a SIMD (64 lanes over 16 ALUs = 4).
	IssueCyclesPerVALU int
	// MemLatencyNS is the unloaded DRAM round-trip latency.
	MemLatencyNS float64
	// CrossLinesPerCycle is the L2-to-MC clock-domain-crossing
	// throughput in cache lines per compute cycle.
	CrossLinesPerCycle float64
	// ChannelEffBase/ChannelEffRow set per-channel efficiency from row
	// locality, as in gpusim.
	ChannelEffBase float64
	ChannelEffRow  float64
	// L2LatencyCycles is the hit latency of the L2 in compute cycles.
	L2LatencyCycles int
	// MaxOutstandingPerWave caps a wavefront's in-flight misses (its
	// MLP), scaled by the kernel's MLPPerWave.
	MaxOutstandingPerWave int
}

// DefaultParams mirrors gpusim.Default().
func DefaultParams() Params {
	return Params{
		IssueCyclesPerVALU:    4,
		MemLatencyNS:          350,
		CrossLinesPerCycle:    6,
		ChannelEffBase:        0.55,
		ChannelEffRow:         0.35,
		L2LatencyCycles:       80,
		MaxOutstandingPerWave: 1,
	}
}

// Result is the outcome of one event-simulated kernel invocation.
type Result struct {
	// Cycles is the kernel duration in compute-clock cycles.
	Cycles int64
	// Time is the duration in seconds.
	Time float64
	// DRAMBytes is the off-chip traffic.
	DRAMBytes float64
	// IssueSlots counts wavefront VALU instructions issued.
	IssueSlots int64
	// StallCycles counts SIMD-cycles: each cycle adds one for every SIMD
	// that had resident waves but could not issue (all waiting on
	// memory). Divide by SIMDs × Cycles for a stalled fraction.
	StallCycles int64
	// MemBusyCycles counts cycles that began with at least one memory
	// request in flight anywhere in the memory system: waiting for a
	// crossing token or awaiting its return.
	MemBusyCycles int64
	// L2Lines counts memory requests served by the L2.
	L2Lines int64
	// ServiceCycles is the aggregate memory-system service time in
	// compute cycles: DRAM channel occupancy (normalized across the six
	// channels) plus L2 slice occupancy. Its ratio to Cycles mirrors the
	// interval model's MemUnitBusy semantics.
	ServiceCycles float64
	// Waves is the number of wavefronts executed.
	Waves int
}

// AchievedGBs returns the realized DRAM bandwidth.
func (r Result) AchievedGBs() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.DRAMBytes / r.Time / 1e9
}

// wave is one resident wavefront's execution state.
type wave struct {
	valuLeft    int // wavefront VALU instructions still to issue
	memLeft     int // memory requests still to send
	issuePause  int // cycles left on the instruction currently issuing
	outstanding int // in-flight memory requests
	maxOut      int // MLP cap
	memEvery    int // issue a memory request after this many VALU insts
	sinceMem    int // VALU insts since the last memory request
	simd        int // index of the SIMD the wave is resident on
}

func (w *wave) done() bool { return w.valuLeft <= 0 && w.memLeft <= 0 && w.outstanding <= 0 }

// atCap reports whether the wave cannot send another request right now.
func (w *wave) atCap() bool { return w.outstanding >= w.maxOut }

// returnEvent is a memory request completing back at its wavefront.
type returnEvent struct {
	at int64
	w  *wave
}

// returnHeap is a min-heap of return events ordered by completion cycle.
// Events that complete on the same cycle only decrement counters, which
// commute, so the order among equal-at pops is immaterial.
type returnHeap []returnEvent

func (h *returnHeap) push(ev returnEvent) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *returnHeap) pop() returnEvent {
	s := *h
	ev := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].at < s[c].at {
			c = r
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return ev
}

// waveQueue is a FIFO ring of waves whose requests wait for a
// clock-domain-crossing token. Its buffer must hold every request that
// can be in flight at once.
type waveQueue struct {
	buf     []*wave
	head, n int
}

func (q *waveQueue) push(w *wave) {
	q.buf[(q.head+q.n)%len(q.buf)] = w
	q.n++
}

func (q *waveQueue) pop() *wave {
	w := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return w
}

// simd is one SIMD unit with its resident waves.
type simd struct {
	waves []*wave
	next  int // round-robin cursor
	// blocked counts the waves, in round-robin order from next, known
	// to be unable to issue: each has no pause left and is at its MLP
	// cap or only waiting on memory. Only a return to one of them can
	// change that, so the scan starts past them until a return, an
	// issue (which moves next) or a retire resets it.
	blocked int
	// dirty marks that a resident wave may have become done since the
	// SIMD was last compacted: its last issue, or a return that took
	// its outstanding count to zero.
	dirty bool
}

// at returns the wave off places after the round-robin cursor, which is
// always below len(sd.waves).
func (sd *simd) at(off int) *wave {
	i := sd.next + off
	if i >= len(sd.waves) {
		i -= len(sd.waves)
	}
	return sd.waves[i]
}

// issue advances the round-robin cursor past the wave at off, which has
// just issued, and forgets the blocked prefix, whose order that moved.
func (sd *simd) issue(off int) {
	sd.next += off + 1
	if sd.next >= len(sd.waves) {
		sd.next -= len(sd.waves)
	}
	sd.blocked = 0
}

// channel is one memory channel: a queue drained at its service rate.
type channel struct {
	freeAt float64 // cycle (fractional) at which the channel is next free
}

// Sim is the event-driven simulator.
type Sim struct {
	P Params
}

// New returns an event simulator with default parameters.
func New() *Sim { return &Sim{P: DefaultParams()} }

// bresenham deterministically spreads a fraction: it returns a closure
// that yields true with the given long-run frequency.
func bresenham(frac float64) func() bool {
	acc := 0.0
	return func() bool {
		acc += frac
		if acc >= 1 {
			acc -= 1
			return true
		}
		return false
	}
}

// Run event-simulates one invocation of kernel k's iteration iter at
// configuration cfg. Large grids are truncated to maxWorkgroups (with
// traffic and issue counts representative of the truncated portion);
// pass 0 for the kernel's natural size.
func (s *Sim) Run(k *workloads.Kernel, iter int, cfg hw.Config, maxWorkgroups int) Result {
	phase := k.PhaseFor(iter)
	div := k.DivergenceFor(phase)
	util := 1 - div
	if util < 1e-3 {
		util = 1e-3
	}

	workgroups := int(float64(k.Workgroups) * phase.WorkScale)
	if workgroups < 1 {
		workgroups = 1
	}
	if maxWorkgroups > 0 && workgroups > maxWorkgroups {
		workgroups = maxWorkgroups
	}
	wavesPerWG := k.WavesPerWorkgroup()
	totalWaves := workgroups * wavesPerWG

	// Per-wavefront program: issued VALU instructions (divergence
	// inflates) and memory requests. Memory requests are expressed in
	// cache lines of DRAM-visible traffic plus L2 hits.
	valuPerWave := int(math.Ceil(k.VALUPerWI / util))
	bytesPerWI := k.FetchPerWI*k.BytesPerFetch*phase.FetchScale + k.WritePerWI*k.BytesPerWrite
	bytesPerWave := bytesPerWI * hw.WavefrontSize
	linesPerWave := int(math.Ceil(bytesPerWave / hw.CacheLineBytes))
	if linesPerWave < 1 {
		linesPerWave = 1
	}
	memEvery := valuPerWave / linesPerWave
	if memEvery < 1 {
		memEvery = 1
	}

	// Machine geometry.
	nCU := cfg.Compute.CUs
	nSIMD := nCU * hw.SIMDsPerCU
	occWaves := k.OccupancyWaves()
	fCU := cfg.Compute.Freq.Hz()

	// Memory system, expressed in compute cycles.
	l2hit := effectiveL2Hit(k, nCU)
	hitGen := bresenham(l2hit)
	chanEff := s.P.ChannelEffBase + s.P.ChannelEffRow*k.RowHit
	chBW := cfg.Memory.BandwidthGBs() * 1e9 * chanEff / hw.MemChannels // bytes/s per channel
	chCyclesPerLine := hw.CacheLineBytes / chBW * fCU                  // compute cycles to drain one line
	latencyCycles := s.P.MemLatencyNS * 1e-9 * fCU
	maxOut := int(math.Max(1, math.Round(k.MLPPerWave*float64(s.P.MaxOutstandingPerWave))))

	// Clock-domain crossing: a token bucket replenished per cycle.
	crossTokens := 0.0

	channels := make([]channel, hw.MemChannels)
	nextChannel := 0

	// Dispatch: fill SIMDs with waves up to occupancy; refill as waves
	// retire. Waves are identical, so dispatch order is immaterial.
	//
	// Waves live in an arena sized by the initial dispatch. A SIMD that
	// is not filled to occupancy then is never refilled (pending is
	// already 0), so each SIMD owns the slots of its initial waves and a
	// replacement reuses a retired wave's slot. A retired wave has no
	// request in flight, so no queue or heap entry still points at it.
	simds := make([]simd, nSIMD)
	pending := totalWaves
	arena := make([]wave, min(totalWaves, nSIMD*occWaves))
	slots := make([]*wave, len(arena))
	dispatch := func(w *wave) {
		*w = wave{
			valuLeft: valuPerWave,
			memLeft:  linesPerWave,
			maxOut:   maxOut,
			memEvery: memEvery,
			simd:     w.simd,
		}
		pending--
	}
	first := 0
	for i := range simds {
		n := min(occWaves, pending)
		for j := first; j < first+n; j++ {
			slots[j] = &arena[j]
			arena[j].simd = i
			dispatch(&arena[j])
		}
		simds[i].waves = slots[first : first+n : first+n]
		first += n
	}

	var (
		now           int64
		issueSlots    int64
		stallCycles   int64
		memBusyCycles int64
		dramLines     int64
		l2Lines       int64
		retired       int
	)
	// Requests waiting for a clock-domain-crossing token, and the heap
	// of in-flight requests ordered by completion cycle. A wave never
	// has more than maxOut requests in flight and a retired wave has
	// none, so neither ever holds more than one arena's worth of maxOut.
	inFlight := len(arena) * maxOut
	crossQueue := waveQueue{buf: make([]*wave, inFlight)}
	returns := make(returnHeap, 0, inFlight)

	serialCycles := int64(k.SerialCycles)

	for retired < totalWaves {
		now++
		// Guard against pathological configurations.
		if now > 1<<40 {
			break
		}

		if len(returns) > 0 || crossQueue.n > 0 {
			memBusyCycles++
		}

		// Complete returned memory requests.
		for len(returns) > 0 && returns[0].at <= now {
			w := returns.pop().w
			w.outstanding--
			sd := &simds[w.simd]
			sd.blocked = 0
			if w.done() {
				sd.dirty = true
			}
		}

		// Replenish crossing tokens and drain the crossing queue into
		// memory channels.
		crossTokens += s.P.CrossLinesPerCycle
		for crossQueue.n > 0 && crossTokens >= 1 {
			crossTokens--
			w := crossQueue.pop()
			// Pick the next channel round-robin; its queue delay adds
			// to the request's return time.
			ch := &channels[nextChannel]
			nextChannel = (nextChannel + 1) % hw.MemChannels
			start := math.Max(float64(now), ch.freeAt)
			ch.freeAt = start + chCyclesPerLine
			dramLines++
			returns.push(returnEvent{at: int64(ch.freeAt + latencyCycles), w: w})
		}

		anyResident := false
		changed := false // some SIMD issued or retired this cycle
		stalled := int64(0)
		minPause := math.MaxInt // shortest issue pause left this cycle
		for si := range simds {
			sd := &simds[si]
			n := len(sd.waves)
			if n == 0 {
				continue
			}
			anyResident = true
			// Round-robin: find an issuable wave, past the waves already
			// known to be blocked.
			off := sd.blocked
			for ; off < n; off++ {
				w := sd.at(off)
				if w.issuePause > 0 {
					// The SIMD is occupied, not stalled.
					w.issuePause--
					minPause = min(minPause, w.issuePause)
					sd.blocked = off
					break
				}
				// Time to send a memory request?
				if w.memLeft > 0 && (w.sinceMem >= w.memEvery || w.valuLeft <= 0) {
					if w.atCap() {
						continue // at MLP cap; try another wave
					}
					w.memLeft--
					w.sinceMem = 0
					w.outstanding++
					if hitGen() {
						// L2 hit: returns after the hit latency without
						// touching the crossing or the channels.
						l2Lines++
						returns.push(returnEvent{at: now + int64(s.P.L2LatencyCycles), w: w})
					} else {
						crossQueue.push(w)
					}
					sd.issue(off)
					changed = true
					break
				}
				if w.valuLeft > 0 {
					w.valuLeft--
					w.sinceMem++
					w.issuePause = s.P.IssueCyclesPerVALU - 1
					issueSlots++
					if w.done() {
						sd.dirty = true
					}
					sd.issue(off)
					changed = true
					break
				}
			}
			if off == n {
				sd.blocked = n
				stalled++
			}
			if !sd.dirty {
				continue
			}
			// Retire finished waves, keeping the live ones in order and
			// moving the retired slots past the end, then refill those
			// slots from the pending pool.
			sd.dirty, changed = false, true
			live := 0
			for i, w := range sd.waves {
				if w.done() {
					retired++
					continue
				}
				sd.waves[live], sd.waves[i] = w, sd.waves[live]
				live++
			}
			sd.waves = sd.waves[:live]
			for len(sd.waves) < occWaves && pending > 0 {
				sd.waves = sd.waves[:len(sd.waves)+1]
				dispatch(sd.waves[len(sd.waves)-1])
			}
			sd.blocked = 0
			if len(sd.waves) > 0 {
				sd.next %= len(sd.waves)
			}
		}
		stallCycles += stalled
		if !anyResident && pending == 0 {
			break
		}

		// Quiescent-cycle skip: with nothing issued or retired and the
		// crossing queue empty, every cycle before the next return or
		// the end of the shortest issue pause repeats this one exactly.
		if changed || crossQueue.n > 0 {
			continue
		}
		until := int64(1 << 40)
		if len(returns) > 0 {
			until = min(until, returns[0].at-1)
		}
		if minPause < math.MaxInt {
			until = min(until, now+int64(minPause))
		}
		skip := until - now
		if skip <= 0 {
			continue
		}
		now = until
		// Each SIMD that did not stall counted down the pause of the wave
		// its scan stopped at.
		for si := range simds {
			if sd := &simds[si]; sd.blocked < len(sd.waves) {
				sd.at(sd.blocked).issuePause -= int(skip)
			}
		}
		stallCycles += skip * stalled
		if len(returns) > 0 {
			memBusyCycles += skip
		}
		// One add per cycle, as the loop would: with a non-integer rate
		// a single multiply rounds differently.
		for range skip {
			crossTokens += s.P.CrossLinesPerCycle
		}
	}

	totalCycles := now + serialCycles
	// L2 service bandwidth mirrors the interval model's 512 B/cycle.
	const l2BytesPerCycle = 512.0
	service := float64(dramLines)*chCyclesPerLine/hw.MemChannels +
		float64(l2Lines)*hw.CacheLineBytes/l2BytesPerCycle
	return Result{
		Cycles:        totalCycles,
		Time:          float64(totalCycles)/fCU + k.LaunchOverhead,
		DRAMBytes:     float64(dramLines) * hw.CacheLineBytes,
		IssueSlots:    issueSlots,
		StallCycles:   stallCycles,
		MemBusyCycles: memBusyCycles,
		L2Lines:       l2Lines,
		ServiceCycles: service,
		Waves:         totalWaves,
	}
}

// effectiveL2Hit mirrors gpusim.EffectiveL2Hit.
func effectiveL2Hit(k *workloads.Kernel, nCU int) float64 {
	frac := float64(nCU-hw.MinCUs) / float64(hw.MaxCUs-hw.MinCUs)
	hit := k.L2Hit * (1 - k.L2Thrash*frac)
	return math.Max(hit, 0)
}
