package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmonia/internal/export"
	"harmonia/internal/session"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
)

// Run states. A run is queued on submission, running once a worker
// picks it up, and done or failed when it finishes. Two quarantine
// states exist beyond the happy path: panicked marks a run whose
// backend execution panicked (the stack is captured on the record and
// the daemon stays up), and interrupted marks a run that a restarted
// daemon found submitted but unfinished in its journal.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusFailed      = "failed"
	StatusPanicked    = "panicked"
	StatusInterrupted = "interrupted"
)

// Run is one evaluation request's lifecycle record. Fields are guarded
// by mu; Done closes when the run reaches a terminal state.
type Run struct {
	ID string
	// seq is the registry's creation sequence number. Ordering uses it
	// rather than the ID string: IDs are zero-padded to six digits, so
	// string order breaks when the counter rolls past run-999999
	// ("run-1000000" < "run-999999" lexicographically).
	seq int

	mu         sync.Mutex
	app        string
	policy     string
	status     string
	err        string
	stack      string
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	report     *session.Report
	// headline carries the recorded result numbers of a run restored
	// from the journal, whose full report (kernel runs, trace) was not
	// persisted. Live runs leave it nil and serve the report instead.
	headline *headline
	restored bool
	// tracer records the run's span tree (GET /v1/runs/{id}/spans). Nil
	// for journal-restored records, whose execution predates this
	// process.
	tracer *trace.Recorder
	// timeline flight-records the run (GET /v1/runs/{id}/timeline and
	// the /live SSE stream). Nil for journal-restored terminal records;
	// journal-replayed re-executions get a fresh recorder.
	timeline *timeline.Recorder

	// reg and slot place the run in its registry's retention queues;
	// set at creation, nil for a run outside any registry. slot is
	// guarded by reg.mu.
	reg  *registry
	slot *retained[*Run]

	done chan struct{}
}

// setTracer installs the run's span recorder; called between create and
// enqueue, before any worker touches the record.
func (r *Run) setTracer(rec *trace.Recorder) {
	r.mu.Lock()
	r.tracer = rec
	r.mu.Unlock()
}

// Tracer returns the run's span recorder, or nil for restored records.
func (r *Run) Tracer() *trace.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// setTimeline installs the run's flight recorder; called between create
// and enqueue, before any worker touches the record.
func (r *Run) setTimeline(rec *timeline.Recorder) {
	r.mu.Lock()
	r.timeline = rec
	r.mu.Unlock()
}

// Timeline returns the run's flight recorder, or nil for restored
// terminal records.
func (r *Run) Timeline() *timeline.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timeline
}

// headline is the ED²/time/energy triple a journal Done record
// preserves for a finished run.
type headline struct {
	ed2, timeS, energyJ *float64
}

// newRun returns a queued run record.
func newRun(id string, seq int, app, policy string, now time.Time) *Run {
	return &Run{
		ID:        id,
		seq:       seq,
		app:       app,
		policy:    policy,
		status:    StatusQueued,
		createdAt: now,
		done:      make(chan struct{}),
	}
}

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// start marks the run running.
func (r *Run) start(now time.Time) {
	r.mu.Lock()
	r.status = StatusRunning
	r.startedAt = now
	r.mu.Unlock()
}

// finish records the outcome and releases waiters.
func (r *Run) finish(rep *session.Report, err error, now time.Time) {
	r.settle(now, func() {
		if err != nil {
			r.status = StatusFailed
			r.err = err.Error()
		} else {
			r.status = StatusDone
			r.report = rep
		}
	})
}

// finishPanic quarantines the run: terminal "panicked" state carrying
// the recovered value and the goroutine stack, no report.
func (r *Run) finishPanic(err error, stack string, now time.Time) {
	r.settle(now, func() {
		r.status = StatusPanicked
		r.err = err.Error()
		r.stack = stack
	})
}

// finishRestored stamps a journal-replayed outcome onto the record:
// status done/failed/panicked/interrupted, the recorded error text, and
// for done runs the recorded headline numbers. The record is terminal
// from birth.
func (r *Run) finishRestored(status, errMsg string, h *headline, now time.Time) {
	r.settle(now, func() {
		r.status = status
		r.err = errMsg
		r.headline = h
		r.restored = true
	})
}

// settle makes the run terminal: it stamps finishedAt and applies the
// outcome under the run's lock, queues the run for retention under the
// registry's lock (held across both, so the registry's finish queue is
// in stamp order), then releases waiters.
func (r *Run) settle(now time.Time, outcome func()) {
	if g := r.reg; g != nil {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	r.mu.Lock()
	r.finishedAt = now
	outcome()
	r.mu.Unlock()
	if g := r.reg; g != nil {
		g.runs.finish(r.slot, now)
	}
	close(r.done)
}

// Headline returns the run's result numbers: from the full report when
// the run executed in this process, from the journal-restored headline
// otherwise. Returns nil for runs without results.
func (r *Run) Headline() *headline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.report != nil {
		ed2, t, e := r.report.ED2(), r.report.TotalTime(), r.report.TotalEnergy()
		return &headline{ed2: &ed2, timeS: &t, energyJ: &e}
	}
	return r.headline
}

// Status returns the run's current state string.
func (r *Run) Status() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Report returns the finished run's report, or nil.
func (r *Run) Report() *session.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report
}

// RunJSON is the wire form of a run record.
type RunJSON struct {
	ID     string `json:"id"`
	App    string `json:"app"`
	Policy string `json:"policy"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Stack is the captured goroutine stack of a panicked run.
	Stack string `json:"stack,omitempty"`
	// Restored marks a record replayed from the journal by a restarted
	// daemon; restored done runs carry headline numbers but no full
	// report or trace.
	Restored   bool               `json:"restored,omitempty"`
	CreatedAt  time.Time          `json:"created_at"`
	FinishedAt *time.Time         `json:"finished_at,omitempty"`
	Report     *export.ReportJSON `json:"report,omitempty"`
}

// JSON snapshots the run for serialization. The trace is served
// separately (GET /v1/runs/{id}/trace), not embedded.
func (r *Run) JSON() RunJSON {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RunJSON{
		ID:        r.ID,
		App:       r.app,
		Policy:    r.policy,
		Status:    r.status,
		Error:     r.err,
		Stack:     r.stack,
		Restored:  r.restored,
		CreatedAt: r.createdAt,
	}
	if !r.finishedAt.IsZero() {
		t := r.finishedAt
		out.FinishedAt = &t
	}
	if r.report != nil {
		rep := export.Report(r.report)
		out.Report = &rep
	}
	return out
}

// registry is the in-memory run store: finished runs are kept for TTL
// so clients can poll results, then evicted; a hard cap bounds memory
// under bursts (oldest finished runs go first; in-flight runs are never
// evicted). Eviction runs on every create, get and list, from the
// queues of retention.go, at a cost independent of the number of
// retained runs.
type registry struct {
	now func() time.Time
	// onEvict, when non-nil, observes how many records each eviction
	// pass dropped (feeds the retention counter on /metrics).
	onEvict func(n int)

	mu   sync.Mutex
	runs retention[*Run]
	seq  int
}

// newRegistry returns an empty registry. ttl <= 0 means keep forever
// (until the cap); max <= 0 means unbounded.
func newRegistry(ttl time.Duration, max int, now func() time.Time) *registry {
	return &registry{now: now, runs: newRetention[*Run](ttl, max)}
}

// create allocates a run record with a fresh sequential ID and stores
// it, evicting expired runs first.
func (g *registry) create(app, policy string) *Run {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(now)
	g.seq++
	return g.addLocked(newRun(fmt.Sprintf("run-%06d", g.seq), g.seq, app, policy, now))
}

// restore re-inserts a run under its original journal ID and advances
// the sequence counter past it, so IDs minted after a replay never
// collide with replayed ones.
func (g *registry) restore(id, app, policy string) *Run {
	now := g.now()
	g.mu.Lock()
	defer g.mu.Unlock()
	seq := seqOf(id)
	if seq > g.seq {
		g.seq = seq
	}
	return g.addLocked(newRun(id, seq, app, policy, now))
}

// addLocked stores run and ties it to the registry. Callers hold g.mu.
func (g *registry) addLocked(run *Run) *Run {
	run.reg = g
	run.slot = g.runs.add(run.ID, run.seq, run)
	return run
}

// seqOf extracts the numeric sequence from an "x-000123" style ID, or 0.
func seqOf(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// get returns the run by ID.
func (g *registry) get(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(g.now())
	return g.runs.get(id)
}

// list returns every retained run, newest first.
func (g *registry) list() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.evictLocked(g.now())
	return g.runs.newestFirst()
}

// size returns the number of retained runs.
func (g *registry) size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs.len()
}

// evictLocked drops finished runs older than TTL, then — if the store
// still exceeds the cap — the oldest finished runs beyond it. Callers
// hold g.mu.
func (g *registry) evictLocked(now time.Time) {
	if n := g.runs.evict(now); n > 0 && g.onEvict != nil {
		g.onEvict(n)
	}
}
