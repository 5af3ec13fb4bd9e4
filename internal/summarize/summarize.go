// Package summarize implements Stage 3 of explain3d: compressing a large
// set of per-tuple explanations into a few human-readable patterns. It
// follows the Data X-Ray approach the paper delegates to (hierarchical
// wildcard patterns over attributes selected by a cost-based greedy
// cover): a pattern fixes some attributes to values and wildcards the
// rest; the summarizer picks a small pattern set covering every target
// tuple while penalizing false positives.
package summarize

import (
	"container/heap"
	"strconv"
	"strings"

	"explain3d/internal/relation"
)

// Pattern is a conjunctive template over a relation's attributes: a fixed
// value per attribute or a wildcard (nil entry).
type Pattern struct {
	Attrs  []string
	Values []*relation.Value // nil = wildcard
	// Covered and FalsePos are filled by Summarize.
	Covered  int
	FalsePos int
}

// String renders the pattern like "Degree='Associate', *".
func (p *Pattern) String() string {
	var b strings.Builder
	for i, v := range p.Values {
		if v == nil {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(p.Attrs[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(v.String()))
	}
	if b.Len() == 0 {
		return "*"
	}
	return b.String()
}

// Matches reports whether a tuple instantiates the pattern.
func (p *Pattern) Matches(row relation.Tuple) bool {
	for i, v := range p.Values {
		if v == nil {
			continue
		}
		if !row[i].Identical(*v) {
			return false
		}
	}
	return true
}

// The summarizer's cost model.
const (
	// patternCost is the fixed price of adding a pattern to the summary
	// (Data X-Ray's conciseness term).
	patternCost = 1
	// falsePositiveCost prices covering a non-target tuple (specificity
	// term).
	falsePositiveCost = 1
	// maxFixedAttrs bounds the number of non-wildcard attributes per
	// candidate pattern (lattice depth).
	maxFixedAttrs = 2
)

// Summarize derives a pattern cover for the target tuples of rel:
// targets[i] marks row i as explained. The result is a greedy weighted
// set cover over candidate patterns mined from the targets themselves;
// per-tuple singleton patterns guarantee the cover is total.
func Summarize(rel *relation.Relation, targets []bool) []*Pattern {
	if rel.Len() == 0 || len(targets) != rel.Len() {
		return nil
	}
	attrs := rel.Schema.Names()
	nAttr := len(attrs)

	// Candidate keys render a row's values over a fixed attribute set as
	// "a=<key>|b=<key>|…" with attributes ascending. renderParts fills the
	// per-attribute fragments in shared byte buffers — the scoring pass
	// touches every row of the relation, so per-combo string allocation
	// would dominate — and both candidate generation and scoring assemble
	// keys from these fragments, so they agree by construction.
	parts := make([][]byte, nAttr)
	keyBuf := make([]byte, 0, 128)
	renderParts := func(row relation.Tuple) {
		for a := range parts {
			b := strconv.AppendInt(parts[a][:0], int64(a), 10)
			parts[a] = row[a].AppendKey(append(b, '='))
		}
	}
	// comboKeys enumerates every ≤ maxFixedAttrs combination of the
	// rendered fragments; visit must not retain key.
	comboKeys := func(row relation.Tuple, visit func(key []byte, fixed []int)) {
		renderParts(row)
		var walk func(start int, chosen []int, keyLen int)
		walk = func(start int, chosen []int, keyLen int) {
			if len(chosen) > 0 {
				visit(keyBuf[:keyLen], chosen)
			}
			if len(chosen) >= maxFixedAttrs {
				return
			}
			for a := start; a < nAttr; a++ {
				n := keyLen
				if n > 0 {
					keyBuf = append(keyBuf[:n], '|')
					n++
				}
				keyBuf = append(keyBuf[:n], parts[a]...)
				walk(a+1, append(chosen, a), n+len(parts[a]))
			}
		}
		walk(0, nil, 0)
	}

	// Candidate generation: every combination of ≤ maxFixedAttrs
	// attribute values observed in some target tuple.
	nTargets := 0
	for _, t := range targets {
		if t {
			nTargets++
		}
	}
	cands := make(map[string]*scored, 4*nTargets)
	var row relation.Tuple
	for i := 0; i < rel.Len(); i++ {
		if !targets[i] {
			continue
		}
		row = rel.RowInto(row, i)
		comboKeys(row, func(key []byte, fixed []int) {
			if _, ok := cands[string(key)]; ok { // no-alloc map probe
				return
			}
			vals := make([]*relation.Value, nAttr)
			for _, f := range fixed {
				v := row[f]
				vals[f] = &v
			}
			// The map key doubles as the deterministic tie-break order: it
			// lists attributes ascending with canonical value encodings, so
			// it orders distinct candidates totally.
			k := string(key)
			cands[k] = &scored{p: &Pattern{Attrs: attrs, Values: vals}, order: k}
		})
	}

	// Evaluate candidates. Every candidate fixes values drawn verbatim from
	// some target row, so a row instantiates a candidate exactly when the
	// key built from the row's own values over the same attribute set
	// equals the candidate's key. One pass over the relation probing each
	// row's combinations therefore scores the whole pool — no full relation
	// scan per candidate. The walk into depth ≥ 2 only extends attributes
	// whose depth-1 probe hit: a composite candidate exists only if all of
	// its single-attribute projections do (they come from the same target
	// rows), so the misses skipped this way cannot be hits.
	active := make([]int, 0, nAttr)
	for i := 0; i < rel.Len(); i++ {
		row = rel.RowInto(row, i)
		renderParts(row)
		bump := func(s *scored) {
			if targets[i] {
				s.covers = append(s.covers, i)
			} else {
				s.falsePos++
			}
		}
		active = active[:0]
		for a := 0; a < nAttr; a++ {
			if s, ok := cands[string(parts[a])]; ok { // no-alloc map probe
				bump(s)
				active = append(active, a)
			}
		}
		if len(active) < 2 {
			continue
		}
		var walk func(start, depth, keyLen int)
		walk = func(start, depth, keyLen int) {
			if depth >= 2 {
				if s, ok := cands[string(keyBuf[:keyLen])]; ok { // no-alloc map probe
					bump(s)
				}
			}
			if depth >= maxFixedAttrs {
				return
			}
			for ai := start; ai < len(active); ai++ {
				n := keyLen
				if n > 0 {
					keyBuf = append(keyBuf[:n], '|')
					n++
				}
				keyBuf = append(keyBuf[:n], parts[active[ai]]...)
				walk(ai+1, depth+1, n+len(parts[active[ai]]))
			}
		}
		walk(0, 0, 0)
	}
	pool := make([]*scored, 0, len(cands))
	for _, s := range cands {
		if len(s.covers) > 0 {
			//lint:ignore mapiter the lazy-greedy heap is a total order on (ratio, candidate key), so selection is independent of map iteration order
			pool = append(pool, s)
		}
	}

	// Greedy weighted set cover: repeatedly take the pattern with the best
	// (new coverage) / (pattern cost + false-positive cost) ratio, ties
	// broken by the candidate key — a total order, so the pop sequence is
	// deterministic whatever order the candidate map yielded. The selection
	// is lazy: the heap holds possibly stale coverage counts, and since
	// covering tuples only ever shrinks a candidate's remaining coverage,
	// re-scoring just the heap top until it is fresh selects the same
	// pattern an exhaustive rescan would — without touching the rest of the
	// pool each round.
	uncovered := make([]bool, rel.Len())
	remaining := 0
	for i, t := range targets {
		if t {
			uncovered[i] = true
			remaining++
		}
	}
	h := make(candHeap, len(pool))
	for i, s := range pool {
		h[i] = heapEntry{
			s: s, newCover: len(s.covers), order: s.order,
			ratio: float64(len(s.covers)) / (patternCost + falsePositiveCost*float64(s.falsePos)),
		}
	}
	heap.Init(&h)
	var out []*Pattern
	for remaining > 0 && h.Len() > 0 {
		top := &h[0]
		newCover := 0
		for _, i := range top.s.covers {
			if uncovered[i] {
				newCover++
			}
		}
		if newCover == 0 {
			heap.Pop(&h)
			continue
		}
		if newCover != top.newCover {
			top.newCover = newCover
			top.ratio = float64(newCover) / (patternCost + falsePositiveCost*float64(top.s.falsePos))
			heap.Fix(&h, 0)
			continue
		}
		best := top.s
		heap.Pop(&h)
		for _, i := range best.covers {
			if uncovered[i] {
				uncovered[i] = false
				remaining--
			}
		}
		best.p.Covered = newCover
		best.p.FalsePos = best.falsePos
		out = append(out, best.p)
	}
	return out
}

// scored is a candidate pattern with its coverage statistics and its
// deterministic tie-break key (the candidate's canonical map key).
type scored struct {
	p        *Pattern
	covers   []int
	falsePos int
	order    string
}

// heapEntry is one lazy-greedy queue entry; newCover and ratio may be stale
// (computed against an earlier, larger uncovered set) and are refreshed at
// the top of the heap before selection.
type heapEntry struct {
	s        *scored
	newCover int
	ratio    float64
	order    string
}

// candHeap is a max-heap on ratio with the candidate key breaking ties,
// which makes the ordering total and the pop sequence deterministic.
type candHeap []heapEntry

func (h candHeap) Len() int { return len(h) }

func (h candHeap) Less(i, j int) bool {
	if h[i].ratio > h[j].ratio {
		return true
	}
	if h[i].ratio < h[j].ratio {
		return false
	}
	return h[i].order < h[j].order
}

func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *candHeap) Push(x any) { *h = append(*h, x.(heapEntry)) }

func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
