package serve

import "time"

// Retention bookkeeping shared by the run and batch registries, modelled
// on a production exporter's retention manager: finished records are
// kept for a TTL so clients can poll them, then evicted; a hard cap
// bounds memory under bursts, evicting the oldest-created finished
// records first and never an in-flight one.
//
// Both rules are served from queues instead of scans, so the cost of an
// eviction pass does not grow with the number of retained records:
//
//   - bySeq holds every record in creation-sequence order. Cap eviction
//     walks it from the head, and list() walks it backwards.
//   - byFinish holds finished records in finish-time order. TTL
//     eviction pops its head while the head has expired.
//
// An evicted record leaves a tombstone in whichever queue it was not
// popped from. The tombstone drops its record at once, so an evicted
// record is unreachable immediately; tombstones are trimmed as the cap
// walk passes them, and a queue whose backing array outgrows twice its
// live entries (tombstones, or slots left by a burst) is compacted.

// retained is one record's entry in a retention.
type retained[T any] struct {
	id  string
	seq int
	// item is the record; zeroed when the record is evicted.
	item       T
	finished   bool
	finishedAt time.Time
	gone       bool
}

// retention is the TTL-plus-cap store. ttl <= 0 keeps finished records
// until the cap; max <= 0 means no cap. Not safe for concurrent use:
// the owning registry's lock guards it.
type retention[T any] struct {
	ttl time.Duration
	max int

	byID     map[string]*retained[T]
	bySeq    []*retained[T]
	byFinish []*retained[T]
	// finishedLive counts the live entries of byFinish.
	finishedLive int
}

// compactSlack is the number of slots a queue may always carry beyond
// twice its live entries, so small stores never churn.
const compactSlack = 64

func newRetention[T any](ttl time.Duration, max int) retention[T] {
	return retention[T]{ttl: ttl, max: max, byID: make(map[string]*retained[T])}
}

// len returns the number of retained records.
func (q *retention[T]) len() int { return len(q.byID) }

// get returns the record stored under id.
func (q *retention[T]) get(id string) (T, bool) {
	e, ok := q.byID[id]
	if !ok {
		var zero T
		return zero, false
	}
	return e.item, true
}

// add stores item under id with creation sequence seq and returns its
// entry. A record already stored under id is replaced (dropped without
// counting as an eviction). Records normally arrive in sequence order;
// a journal-restored one with an older sequence is inserted in place.
func (q *retention[T]) add(id string, seq int, item T) *retained[T] {
	if old, ok := q.byID[id]; ok {
		q.drop(old)
	}
	e := &retained[T]{id: id, seq: seq, item: item}
	q.byID[id] = e
	q.bySeq = append(q.bySeq, e)
	for i := len(q.bySeq) - 1; i > 0 && q.bySeq[i-1].seq > seq; i-- {
		q.bySeq[i-1], q.bySeq[i] = q.bySeq[i], q.bySeq[i-1]
	}
	return e
}

// finish marks e finished at the given instant and, under a TTL, queues
// it for expiry. Finishes normally arrive in time order; one stamped
// earlier than the queue's tail is inserted in place. A replaced or
// evicted entry is ignored.
func (q *retention[T]) finish(e *retained[T], at time.Time) {
	if e == nil || e.gone || e.finished {
		return
	}
	e.finished, e.finishedAt = true, at
	if q.ttl <= 0 {
		return
	}
	q.finishedLive++
	q.byFinish = append(q.byFinish, e)
	for i := len(q.byFinish) - 1; i > 0 && q.byFinish[i-1].finishedAt.After(at); i-- {
		q.byFinish[i-1], q.byFinish[i] = q.byFinish[i], q.byFinish[i-1]
	}
}

// drop evicts e: it leaves the ID index and releases its record, and
// its queue slots become tombstones.
func (q *retention[T]) drop(e *retained[T]) {
	e.gone = true
	var zero T
	e.item = zero
	delete(q.byID, e.id)
	if e.finished && q.ttl > 0 {
		q.finishedLive--
	}
}

// evict drops finished records older than the TTL, then, while the
// store exceeds the cap, the oldest-created records that finished at or
// before now. It returns how many records it dropped.
func (q *retention[T]) evict(now time.Time) int {
	n := 0
	if q.ttl > 0 {
		cutoff := now.Add(-q.ttl)
		k := 0
		for ; k < len(q.byFinish); k++ {
			e := q.byFinish[k]
			if !e.gone {
				if e.finishedAt.After(cutoff) {
					break
				}
				q.drop(e)
				n++
			}
			q.byFinish[k] = nil
		}
		q.byFinish = q.byFinish[k:]
		if cap(q.byFinish) > 2*q.finishedLive+compactSlack {
			q.byFinish = live(q.byFinish, q.finishedLive)
		}
	}
	if q.max > 0 && len(q.byID) > q.max {
		n += q.evictOverCap(now)
	}
	for len(q.bySeq) > 0 && q.bySeq[0].gone {
		q.bySeq[0] = nil
		q.bySeq = q.bySeq[1:]
	}
	if cap(q.bySeq) > 2*len(q.byID)+compactSlack {
		q.bySeq = live(q.bySeq, len(q.byID))
	}
	return n
}

// evictOverCap walks bySeq from the head, dropping finished records
// until the store is back at the cap. Tombstones it passes are removed
// and the records it must keep (in flight, or finished after now) are
// shifted up against the rest of the queue, so the next walk starts at
// them again without re-passing anything removed: a pass costs the
// records it keeps, which are bounded by the in-flight work, plus
// removals, each paid once.
func (q *retention[T]) evictOverCap(now time.Time) int {
	n, kept, i := 0, 0, 0
	for ; i < len(q.bySeq) && len(q.byID) > q.max; i++ {
		e := q.bySeq[i]
		switch {
		case e.gone:
		case e.finished && !e.finishedAt.After(now):
			q.drop(e)
			n++
		default:
			q.bySeq[kept] = e
			kept++
		}
	}
	removed := i - kept
	copy(q.bySeq[removed:i], q.bySeq[:kept])
	clear(q.bySeq[:removed])
	q.bySeq = q.bySeq[removed:]
	return n
}

// live returns the n live entries of a queue, in order, in a new
// exact-size slice, so the old backing array and its tombstones can be
// collected.
func live[T any](entries []*retained[T], n int) []*retained[T] {
	out := make([]*retained[T], 0, n)
	for _, e := range entries {
		if !e.gone {
			out = append(out, e)
		}
	}
	return out
}

// newestFirst returns every retained record, newest-created first.
func (q *retention[T]) newestFirst() []T {
	out := make([]T, 0, len(q.byID))
	for i := len(q.bySeq) - 1; i >= 0; i-- {
		if e := q.bySeq[i]; !e.gone {
			out = append(out, e.item)
		}
	}
	return out
}
