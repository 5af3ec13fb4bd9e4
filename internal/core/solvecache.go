package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
)

// solvecache.go — Stage 2's two reuse keys, both in local coordinates
// (positions within a sub-problem or a component), so equal content hits
// wherever its canonical ids landed.
//
// The partition key (subKey) covers a whole sub-problem: per-tuple impacts
// and priors, the match list with probabilities, and the cardinality
// flags, hashed with SHA-256. It keys SolveCache, which may outlive a call:
// unchanged partitions of an incrementally maintained instance replay their
// decoded fragment instead of being solved again.
//
// The component key (appendCompKey) covers one match-connected component
// of a sub-problem, exactly the bytes encode and warmStart read, and keys
// compMemo, which lives for one call: each distinct component is encoded
// and searched once, however many sub-problems repeat it.
//
// Both store only solves proven optimal: budget-limited incumbents are
// timing-dependent and must not be replayed.

// SolveCache is an LRU of proven-optimal sub-problem solutions, safe for
// concurrent use by the solve worker pool.
type SolveCache struct {
	mu  sync.Mutex
	max int
	// guarded by mu
	items map[string]*list.Element
	// guarded by mu
	ll *list.List
	// guarded by mu
	hits, misses int64
}

// SolveCacheStats is a snapshot of cache effectiveness counters.
type SolveCacheStats struct {
	Entries      int
	Hits, Misses int64
}

type cachedSolution struct {
	key   string
	frag  localFrag
	stats Stats
	call  *byte // identifies the SolveInstanceCached call that stored it
}

// NewSolveCache creates a cache bounded to max entries (≤0 defaults to 4096).
func NewSolveCache(max int) *SolveCache {
	if max <= 0 {
		max = 4096
	}
	return &SolveCache{
		max: max,
		//lint:ignore guarded constructor: the fresh cache is not shared until returned
		items: make(map[string]*list.Element), ll: list.New(),
	}
}

// Stats snapshots the counters.
func (c *SolveCache) Stats() SolveCacheStats {
	if c == nil {
		return SolveCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return SolveCacheStats{Entries: c.ll.Len(), Hits: c.hits, Misses: c.misses}
}

func (c *SolveCache) lookup(key string) (*cachedSolution, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cachedSolution), true
	}
	c.misses++
	return nil, false
}

func (c *SolveCache) store(key string, frag localFrag, stats Stats, call *byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value = &cachedSolution{key: key, frag: frag, stats: stats, call: call}
		return
	}
	el := c.ll.PushFront(&cachedSolution{key: key, frag: frag, stats: stats, call: call})
	c.items[key] = el
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cachedSolution).key)
	}
}

// localFrag is a decoded explanation fragment in sub-problem-local
// coordinates: tuple positions within sub.left/sub.right and match indexes
// within sub.matches.
type localFrag struct {
	prov []localProv
	val  []localVal
	evid []int32
}

type localProv struct {
	side Side
	pos  int32
}

type localVal struct {
	side      Side
	pos       int32
	newImpact float64
}

// globalize replays the fragment against a sub-problem, producing the exact
// Explanations decode would have returned for an identical solve.
func (f localFrag) globalize(sub *subProblem) *Explanations {
	out := &Explanations{}
	idOf := func(side Side, pos int32) int {
		if side == Left {
			return sub.left[pos]
		}
		return sub.right[pos]
	}
	for _, pe := range f.prov {
		out.Prov = append(out.Prov, ProvExpl{Side: pe.side, Tuple: idOf(pe.side, pe.pos)})
	}
	for _, ve := range f.val {
		out.Val = append(out.Val, ValExpl{Side: ve.side, Tuple: idOf(ve.side, ve.pos), NewImpact: ve.newImpact})
	}
	for _, mi := range f.evid {
		m := sub.matches[mi]
		out.Evidence = append(out.Evidence, Evidence{L: m.L, R: m.R, P: m.P})
	}
	return out
}

// subKey hashes everything the placed sub-problem's solve outcome depends
// on, in local coordinates: per-tuple impact and priors on each side (in
// sub order), the match list with local endpoints and probability bits,
// and the cardinality flags. Iteration runs over slices only — fully
// deterministic.
func (w *worker) subKey() string {
	inst, sub := w.inst, w.sub
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wSide := func(side Side, ids []int, impacts []float64) {
		wInt(int64(len(ids)))
		for _, id := range ids {
			alpha, beta := w.p.tuplePriors(side, id)
			wFloat(impacts[id])
			wFloat(alpha)
			wFloat(beta)
		}
	}
	wSide(Left, sub.left, inst.T1.Impacts)
	wSide(Right, sub.right, inst.T2.Impacts)
	wInt(int64(len(sub.matches)))
	for _, m := range sub.matches {
		wInt(int64(w.posL[m.L]))
		wInt(int64(w.posR[m.R]))
		wFloat(m.P)
	}
	wInt(int64(cardFlags(inst.Card)))
	return string(h.Sum(nil))
}

func cardFlags(c Cardinality) byte {
	flags := byte(0)
	if c.LeftAtMostOne {
		flags |= 1
	}
	if c.RightAtMostOne {
		flags |= 2
	}
	return flags
}

// appendCompKey appends component c's key to k: the sub-problem's impact
// bounds, the cardinality flags, each tuple's impact and resolved priors
// (left tuples, then right, in sub order), and each match's
// component-local endpoints and probability. Floats enter as bits and
// lists with their lengths, so two keys are equal exactly when encode and
// warmStart read the same values.
func (w *worker) appendCompKey(k []byte, c int32, lo, hi float64) []byte {
	s, inst := &w.split, w.inst
	k = appendBits(appendBits(k, lo), hi)
	k = append(k, cardFlags(inst.Card))
	k = binary.AppendUvarint(k, uint64(s.leftAt[c+1]-s.leftAt[c]))
	k = binary.AppendUvarint(k, uint64(s.rightAt[c+1]-s.rightAt[c]))
	k = binary.AppendUvarint(k, uint64(s.matchAt[c+1]-s.matchAt[c]))
	tuple := func(side Side, id int, impact float64) {
		alpha, beta := w.p.tuplePriors(side, id)
		k = appendBits(appendBits(appendBits(k, impact), alpha), beta)
	}
	for _, id := range s.left[s.leftAt[c]:s.leftAt[c+1]] {
		tuple(Left, id, inst.T1.Impacts[id])
	}
	for _, id := range s.right[s.rightAt[c]:s.rightAt[c+1]] {
		tuple(Right, id, inst.T2.Impacts[id])
	}
	for ms := s.matchAt[c]; ms < s.matchAt[c+1]; ms++ {
		k = binary.AppendUvarint(k, uint64(s.lslot[ms]-s.leftAt[c]))
		k = binary.AppendUvarint(k, uint64(s.rslot[ms]-s.rightAt[c]))
		k = appendBits(k, w.sub.matches[s.match[ms]].P)
	}
	return k
}

func appendBits(k []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(k, math.Float64bits(f))
}

// compMemo lets one call's solve workers share solved components: a
// component whose key equals one solved before replays that solve instead
// of being encoded and searched again, and one another worker is searching
// right now is waited for, so each distinct component is searched once.
// Keys are compared whole. Only optimal results are kept; the zero value
// is ready for concurrent use.
type compMemo struct {
	mu sync.Mutex
	// guarded by mu
	entries map[string]*compEntry
}

// compEntry is one distinct component. Its creator sets sol (nil unless
// the search proved it optimal), then closes done.
type compEntry struct {
	key  string
	done chan struct{}
	sol  *compSol
}

// claim returns key's entry and whether the caller created it; a creator
// must search the component and hand the result to finish.
func (cm *compMemo) claim(key []byte) (*compEntry, bool) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if e, ok := cm.entries[string(key)]; ok {
		return e, false
	}
	if cm.entries == nil {
		cm.entries = make(map[string]*compEntry)
	}
	e := &compEntry{key: string(key), done: make(chan struct{})}
	cm.entries[e.key] = e
	return e, true
}

// finish publishes the creator's result; a nil sol (a search cut short)
// leaves the memo, so its waiters and the next claim search again.
func (cm *compMemo) finish(e *compEntry, sol *compSol) {
	if sol == nil {
		cm.mu.Lock()
		delete(cm.entries, e.key)
		cm.mu.Unlock()
	}
	e.sol = sol
	close(e.done)
}
