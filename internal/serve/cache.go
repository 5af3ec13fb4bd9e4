package serve

import (
	"container/list"
	"context"
	"slices"
	"sync"

	"explain3d/internal/sqlparse"
)

// resultTable holds explaind's answers: one entry per canonical request key,
// either in flight (a solve every concurrent identical request waits on) or
// finished (a marshaled body in a fixed-capacity LRU). Finished bodies are
// immutable, so hits hand the same slice to every writer and responses stay
// byte-identical to the solve that produced them. Entries carry the dataset
// they answer for and the relation tags their queries read, so a delta drops
// exactly the entries it could have changed, in flight or finished.
type resultTable struct {
	mu sync.Mutex
	// guarded by mu
	max int
	// guarded by mu
	ll *list.List // finished entries, front = most recently used
	// guarded by mu
	items map[string]*result
	// guarded by mu
	evictions int64
	// guarded by mu
	invalidations int64
}

// result is one table entry. done closes when the solve finishes; the
// answer fields are written before the close, so waiters read them after
// it without the lock.
type result struct {
	key     string
	dataset string
	// tags are the relations the entry's queries read, "1:"/"2:"-prefixed
	// by database side and lowercased.
	tags []string
	done chan struct{}
	// cancel stops the solve. guarded by resultTable.mu
	cancel context.CancelFunc
	// waiters counts requests waiting on the solve. guarded by resultTable.mu
	waiters int
	// el is the entry's LRU element once finished and kept. guarded by resultTable.mu
	el *list.Element

	// body/status/errMsg/version are written by the solver before close(done).
	body    []byte
	status  int
	errMsg  string
	version int64
}

func newResultTable(max int) *resultTable {
	//lint:ignore guarded constructor: the fresh table is not shared until returned
	return &resultTable{max: max, ll: list.New(), items: make(map[string]*result)}
}

// join looks key up in one locked step. A finished entry is a "hit", marked
// most recently used; an in-flight one gains a waiter ("flight"). Otherwise
// join creates an in-flight entry ("miss") whose solve the caller must run
// under ctx, derived from base so that it outlives any single request; only
// this path builds the entry's tags.
func (t *resultTable) join(key, dataset string, q1, q2 *sqlparse.Select, base context.Context) (r *result, ctx context.Context, disposition string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.items[key]; ok {
		if e.el != nil {
			t.ll.MoveToFront(e.el)
			return e, nil, "hit"
		}
		e.waiters++
		return e, nil, "flight"
	}
	ctx, cancel := context.WithCancel(base)
	r = &result{key: key, dataset: dataset, tags: queryTags(q1, q2), done: make(chan struct{}), cancel: cancel, waiters: 1}
	t.items[key] = r
	return r, ctx, "miss"
}

// leave detaches a disconnected waiter. The last waiter to leave an
// unfinished entry cancels its solve and frees the key, so a later request
// starts fresh and the partial answer is never kept.
func (t *resultTable) leave(r *result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.waiters--
	if r.waiters > 0 {
		return
	}
	select {
	case <-r.done:
	default:
		r.cancel()
		if t.items[r.key] == r {
			delete(t.items, r.key)
		}
	}
}

// finish publishes a solve's answer to its waiters. The entry stays as a
// finished body only while it is still the table's entry for its key (no
// delta invalidated it and its waiters did not all leave), the solve did not
// fail, and the answer is whole: a budget-limited (TimedOut) incumbent
// answers its own waiters but is never served to later requests. Keeping an
// entry may evict the least recently used one over capacity.
func (t *resultTable) finish(r *result, body []byte, status int, errMsg string, version int64, timedOut bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.body, r.status, r.errMsg, r.version = body, status, errMsg, version
	close(r.done)
	r.cancel() // release the context's resources
	if t.items[r.key] != r {
		return
	}
	if errMsg != "" || timedOut {
		delete(t.items, r.key)
		return
	}
	r.el = t.ll.PushFront(r)
	for t.ll.Len() > t.max {
		last := t.ll.Remove(t.ll.Back()).(*result)
		delete(t.items, last.key)
		t.evictions++
	}
}

// invalidate drops every entry for the dataset whose queries read any of
// the touched relation tags, returning how many finished bodies it dropped.
// A dropped in-flight solve still answers its waiters, but later requests
// start a fresh solve on the new generation. Entries for other datasets or
// untouched relations stay valid: their answers cannot have changed.
func (t *resultTable) invalidate(dataset string, touched map[string]bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for key, r := range t.items {
		if r.dataset != dataset || !slices.ContainsFunc(r.tags, func(tag string) bool { return touched[tag] }) {
			continue
		}
		delete(t.items, key)
		if r.el != nil {
			t.ll.Remove(r.el)
			n++
		}
	}
	t.invalidations += int64(n)
	return n
}

// queryTags renders the relations the two queries read as side-prefixed
// lowercase tags — the result table's invalidation scope.
func queryTags(q1, q2 *sqlparse.Select) []string {
	var tags []string
	for _, t := range q1.Tables() {
		tags = append(tags, "1:"+lowerName(t))
	}
	for _, t := range q2.Tables() {
		tags = append(tags, "2:"+lowerName(t))
	}
	return tags
}

// stats reports the number of finished bodies held and how many the
// capacity bound and deltas have dropped.
func (t *resultTable) stats() (bodies int, evictions, invalidations int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len(), t.evictions, t.invalidations
}
