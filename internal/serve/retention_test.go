package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The differential retention tests drive the queue-ordered registries
// and a reference built from the full-scan eviction they replaced
// through the same random operation sequences, and require the same
// retained IDs, the same list order and the same eviction counts after
// every step. The reference shares the registries' record objects and
// only reads them, so both sides see every start and finish.

// terminalStatus reports whether a run in this status has finished for
// good.
func terminalStatus(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusPanicked, StatusInterrupted:
		return true
	}
	return false
}

// terminalSince reports whether the run finished at or before cutoff
// (the reference's view of a run).
func (r *Run) terminalSince(cutoff time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return terminalStatus(r.status) && !r.finishedAt.After(cutoff)
}

// terminalSince reports whether the batch finished at or before cutoff
// (the reference's view of a batch).
func (b *Batch) terminalSince(cutoff time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.finishedAt.IsZero() && !b.finishedAt.After(cutoff)
}

// refRegistry is the run registry's previous retention: a map scanned
// in full on every pass.
type refRegistry struct {
	ttl     time.Duration
	max     int
	onEvict func(n int)
	runs    map[string]*Run
	seq     int
}

// create mirrors registry.create for a run the registry minted,
// checking the ID the reference would have minted.
func (g *refRegistry) create(t *testing.T, run *Run, now time.Time) {
	t.Helper()
	g.evictLocked(now)
	g.seq++
	if want := fmt.Sprintf("run-%06d", g.seq); run.ID != want || run.seq != g.seq {
		t.Fatalf("registry minted %s (seq %d), reference %s (seq %d)", run.ID, run.seq, want, g.seq)
	}
	g.runs[run.ID] = run
}

// restore mirrors registry.restore.
func (g *refRegistry) restore(run *Run) {
	if seq := seqOf(run.ID); seq > g.seq {
		g.seq = seq
	}
	g.runs[run.ID] = run
}

func (g *refRegistry) get(id string, now time.Time) bool {
	g.evictLocked(now)
	_, ok := g.runs[id]
	return ok
}

func (g *refRegistry) list(now time.Time) []*Run {
	g.evictLocked(now)
	return g.newestFirst()
}

func (g *refRegistry) newestFirst() []*Run {
	out := make([]*Run, 0, len(g.runs))
	for _, run := range g.runs {
		out = append(out, run)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out
}

// evictLocked is the previous registry.evictLocked, verbatim.
func (g *refRegistry) evictLocked(now time.Time) {
	before := len(g.runs)
	if g.ttl > 0 {
		cutoff := now.Add(-g.ttl)
		for id, run := range g.runs {
			if run.terminalSince(cutoff) {
				delete(g.runs, id)
			}
		}
	}
	if g.max > 0 && len(g.runs) > g.max {
		finished := make([]*Run, 0, len(g.runs))
		for _, run := range g.runs {
			if run.terminalSince(now) {
				finished = append(finished, run)
			}
		}
		sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
		for _, run := range finished {
			if len(g.runs) <= g.max {
				break
			}
			delete(g.runs, run.ID)
		}
	}
	if n := before - len(g.runs); n > 0 && g.onEvict != nil {
		g.onEvict(n)
	}
}

// testClock is a settable clock safe for the batch watchers to read.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// retentionShapes are the TTL/cap combinations the differential tests
// sweep: neither, TTL only, cap only, and both.
var retentionShapes = []struct {
	ttl time.Duration
	max int
}{
	{0, 0}, {time.Minute, 0}, {0, 1}, {0, 3}, {0, 8},
	{time.Minute, 1}, {time.Minute, 4}, {30 * time.Second, 16},
}

func runIDs(runs []*Run) []string {
	out := make([]string, len(runs))
	for i, run := range runs {
		out[i] = run.ID
	}
	return out
}

// TestRegistryRetentionMatchesFullScan is the differential test for
// run retention: random sequences of create, start, finish (on time,
// stamped late or early, failed or panicked), restore (fresh, behind
// the counter, or replacing a retained ID, terminal or not), clock
// advance, get and list, under every retention shape, some starting
// just short of the run-999999 rollover.
func TestRegistryRetentionMatchesFullScan(t *testing.T) {
	for si, shape := range retentionShapes {
		for trial := 0; trial < 12; trial++ {
			name := fmt.Sprintf("ttl=%v/max=%d/trial=%d", shape.ttl, shape.max, trial)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(si*1000 + trial)))
				clock := newTestClock()
				reg := newRegistry(shape.ttl, shape.max, clock.now)
				ref := &refRegistry{ttl: shape.ttl, max: shape.max, runs: map[string]*Run{}}
				var gotEvict, wantEvict []int
				reg.onEvict = func(n int) { gotEvict = append(gotEvict, n) }
				ref.onEvict = func(n int) { wantEvict = append(wantEvict, n) }
				if trial%3 == 2 {
					reg.seq, ref.seq = 999990, 999990
				}
				var pending []*Run // every run not yet terminal, retained or replaced
				jitter := func() time.Duration { return time.Duration(rng.Intn(2000)-1000) * time.Millisecond }
				for step := 0; step < 300; step++ {
					now := clock.now()
					var op string
					switch r := rng.Intn(100); {
					case r < 30:
						op = "create"
						run := reg.create("app", "pol")
						ref.create(t, run, now)
						pending = append(pending, run)
					case r < 38:
						op = "start"
						if len(pending) > 0 {
							pending[rng.Intn(len(pending))].start(now)
						}
					case r < 60:
						op = "finish"
						if len(pending) == 0 {
							break
						}
						i := rng.Intn(len(pending))
						run := pending[i]
						pending = append(pending[:i], pending[i+1:]...)
						at := now
						if rng.Intn(4) == 0 {
							at = now.Add(jitter())
						}
						switch rng.Intn(6) {
						case 0:
							run.finish(nil, errors.New("boom"), at)
						case 1:
							run.finishPanic(errors.New("panic"), "stack", at)
						default:
							run.finish(nil, nil, at)
						}
					case r < 66:
						op = "restore"
						var seq int
						switch rng.Intn(3) {
						case 0: // ahead of the counter
							seq = reg.seq + 1 + rng.Intn(5)
						case 1: // behind it: a fresh, evicted or retained ID
							seq = 1 + rng.Intn(reg.seq+1)
						default: // replace a retained run
							if ids := runIDs(ref.newestFirst()); len(ids) > 0 {
								seq = seqOf(ids[rng.Intn(len(ids))])
							} else {
								seq = reg.seq + 1
							}
						}
						run := reg.restore(fmt.Sprintf("run-%06d", seq), "app", "pol")
						ref.restore(run)
						if rng.Intn(3) > 0 {
							run.finishRestored(StatusDone, "", nil, now)
						} else {
							pending = append(pending, run)
						}
					case r < 78:
						op = "advance"
						clock.advance(time.Duration(rng.Intn(45000)) * time.Millisecond)
					case r < 92:
						op = "get"
						id := fmt.Sprintf("run-%06d", 1+rng.Intn(reg.seq+1))
						if rng.Intn(2) == 0 {
							if ids := runIDs(ref.newestFirst()); len(ids) > 0 {
								id = ids[rng.Intn(len(ids))]
							}
						}
						_, got := reg.get(id)
						if want := ref.get(id, now); got != want {
							t.Fatalf("step %d: get(%s) = %v, reference %v", step, id, got, want)
						}
					default:
						op = "list"
						got, want := runIDs(reg.list()), runIDs(ref.list(now))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d: list = %v, reference %v", step, got, want)
						}
					}
					reg.mu.Lock()
					got := runIDs(reg.runs.newestFirst())
					reg.mu.Unlock()
					if want := runIDs(ref.newestFirst()); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%s): retained %v, reference %v", step, op, got, want)
					}
					if !reflect.DeepEqual(gotEvict, wantEvict) {
						t.Fatalf("step %d (%s): onEvict counts %v, reference %v", step, op, gotEvict, wantEvict)
					}
				}
			})
		}
	}
}

// refBatchRegistry is the batch registry's previous retention, the
// full-scan mirror of the run registry's.
type refBatchRegistry struct {
	ttl     time.Duration
	max     int
	batches map[string]*Batch
}

// evictLocked is the previous batchRegistry.evictLocked, verbatim.
func (g *refBatchRegistry) evictLocked(now time.Time) {
	if g.ttl > 0 {
		cutoff := now.Add(-g.ttl)
		for id, b := range g.batches {
			if b.terminalSince(cutoff) {
				delete(g.batches, id)
			}
		}
	}
	if g.max > 0 && len(g.batches) > g.max {
		finished := make([]*Batch, 0, len(g.batches))
		for _, b := range g.batches {
			if b.terminalSince(now) {
				finished = append(finished, b)
			}
		}
		sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
		for _, b := range finished {
			if len(g.batches) <= g.max {
				break
			}
			delete(g.batches, b.ID)
		}
	}
}

func (g *refBatchRegistry) ids() []string {
	out := make([]string, 0, len(g.batches))
	for id := range g.batches {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TestBatchRegistryRetentionMatchesFullScan is the differential test for
// batch retention: random sequences of create, restore, cell finishes
// (each batch settling once its last cell does), clock advance and get,
// under every retention shape.
func TestBatchRegistryRetentionMatchesFullScan(t *testing.T) {
	for si, shape := range retentionShapes {
		for trial := 0; trial < 6; trial++ {
			name := fmt.Sprintf("ttl=%v/max=%d/trial=%d", shape.ttl, shape.max, trial)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(si*1000 + trial)))
				clock := newTestClock()
				g := newBatchRegistry(shape.ttl, shape.max, clock.now)
				t.Cleanup(g.wait)
				ref := &refBatchRegistry{ttl: shape.ttl, max: shape.max, batches: map[string]*Batch{}}
				type cell struct {
					run   *Run
					batch *Batch
				}
				var open []cell
				cells := 0
				newCells := func() []*Run {
					out := make([]*Run, 1+rng.Intn(2))
					for i := range out {
						cells++
						out[i] = newRun(fmt.Sprintf("run-%06d", cells), cells, "app", "pol", clock.now())
					}
					return out
				}
				t.Cleanup(func() {
					for _, c := range open {
						c.run.finish(nil, nil, clock.now())
					}
				})
				for step := 0; step < 200; step++ {
					now := clock.now()
					var op string
					switch r := rng.Intn(100); {
					case r < 30:
						op = "create"
						ref.evictLocked(now)
						runs := newCells()
						b := g.create([]string{"app"}, []string{"pol"}, runs)
						ref.batches[b.ID] = b
						for _, run := range runs {
							open = append(open, cell{run, b})
						}
					case r < 36:
						op = "restore"
						id := fmt.Sprintf("batch-%06d", g.seq+1+rng.Intn(3))
						runs := newCells()
						b := g.restore(id, []string{"app"}, []string{"pol"}, runs, false)
						ref.batches[b.ID] = b
						for _, run := range runs {
							open = append(open, cell{run, b})
						}
					case r < 70:
						op = "finish"
						if len(open) == 0 {
							break
						}
						i := rng.Intn(len(open))
						c := open[i]
						open = append(open[:i], open[i+1:]...)
						c.run.finish(nil, nil, now)
						last := true
						for _, o := range open {
							last = last && o.batch != c.batch
						}
						if last {
							<-c.batch.Done() // settled at this clock reading
						}
					case r < 82:
						op = "advance"
						clock.advance(time.Duration(rng.Intn(45000)) * time.Millisecond)
					default:
						op = "get"
						id := fmt.Sprintf("batch-%06d", 1+rng.Intn(g.seq+1))
						ref.evictLocked(now)
						_, want := ref.batches[id]
						if _, got := g.get(id); got != want {
							t.Fatalf("step %d: get(%s) = %v, reference %v", step, id, got, want)
						}
					}
					g.mu.Lock()
					var got []string
					for _, b := range g.batches.newestFirst() {
						got = append(got, b.ID)
					}
					g.mu.Unlock()
					sort.Strings(got)
					if want := ref.ids(); strings.Join(got, ",") != strings.Join(want, ",") {
						t.Fatalf("step %d (%s): retained %v, reference %v", step, op, got, want)
					}
				}
			})
		}
	}
}

// TestRetentionReleasesEvictedRecords: an evicted record is unreachable
// from the retention at once, and a store churned far past its cap or
// TTL keeps its queues within a fixed multiple of its live count, also
// when a record that never leaves pins a queue's head.
func TestRetentionReleasesEvictedRecords(t *testing.T) {
	clock := newTestClock()
	referenced := func(g *registry, run *Run) bool {
		for _, e := range append(g.runs.bySeq, g.runs.byFinish...) {
			if e != nil && e.item == run {
				return true
			}
		}
		return false
	}
	bounded := func(t *testing.T, g *registry) {
		t.Helper()
		g.mu.Lock()
		defer g.mu.Unlock()
		live := g.runs.len()
		for name, q := range map[string][]*retained[*Run]{"bySeq": g.runs.bySeq, "byFinish": g.runs.byFinish} {
			if len(q) > 2*live+compactSlack || cap(q) > 4*(live+compactSlack) {
				t.Errorf("%s holds %d entries (%d slots) for %d live runs", name, len(q), cap(q), live)
			}
		}
	}

	// Cap eviction drops the oldest run while its finish-queue slot is
	// still queued behind the TTL: the slot must not hold it.
	small := newRegistry(time.Hour, 2, clock.now)
	oldest := small.create("app", "pol")
	oldest.finish(nil, nil, clock.now())
	for i := 0; i < 3; i++ {
		small.create("app", "pol").finish(nil, nil, clock.now())
	}
	small.mu.Lock()
	_, kept := small.runs.get(oldest.ID)
	held := referenced(small, oldest)
	small.mu.Unlock()
	if kept || held {
		t.Fatalf("the oldest finished run is retained (%v) or referenced (%v) past the cap", kept, held)
	}

	t.Run("cap, with the oldest run in flight", func(t *testing.T) {
		reg := newRegistry(time.Minute, 8, clock.now)
		stuck := reg.create("app", "pol") // the cap walk must skip it every time
		for i := 0; i < 5000; i++ {
			reg.create("app", "pol").finish(nil, nil, clock.now())
			if i%7 == 0 {
				clock.advance(10 * time.Second)
			}
		}
		if _, ok := reg.get(stuck.ID); !ok {
			t.Fatal("the in-flight run was evicted")
		}
		bounded(t, reg)
	})
	t.Run("cap, with the first-finished run newest", func(t *testing.T) {
		// The newest run finishes first and heads the finish queue for
		// the whole hour, while cap evictions of the older runs that
		// finish after it leave tombstones behind it.
		reg := newRegistry(time.Hour, 8, clock.now)
		older := make([]*Run, 5000)
		for i := range older {
			older[i] = reg.create("app", "pol")
		}
		reg.create("app", "pol").finish(nil, nil, clock.now())
		for _, run := range older {
			run.finish(nil, nil, clock.now())
			reg.get(run.ID)
		}
		bounded(t, reg)
	})
	t.Run("TTL, with the oldest run in flight", func(t *testing.T) {
		// With no cap, TTL evictions leave tombstones in the sequence
		// queue behind the in-flight head.
		reg := newRegistry(time.Minute, 0, clock.now)
		reg.create("app", "pol")
		for i := 0; i < 5000; i++ {
			reg.create("app", "pol").finish(nil, nil, clock.now())
			clock.advance(time.Second)
		}
		bounded(t, reg)
	})
}
