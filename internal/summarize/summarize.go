// Package summarize implements Stage 3 of explain3d: compressing a large
// set of per-tuple explanations into a few human-readable patterns. It
// follows the Data X-Ray approach the paper delegates to (hierarchical
// wildcard patterns over attributes selected by a cost-based greedy
// cover): a pattern fixes some attributes to values and wildcards the
// rest; the summarizer picks a small pattern set covering every target
// tuple while penalizing false positives.
package summarize

import (
	"bytes"
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

// Matches reports whether a tuple instantiates the pattern: each fixed
// value has the same key (Value.AppendKey) as the tuple's, the equality
// Summarize counts Covered and FalsePos by.
func (p *Pattern) Matches(row relation.Tuple) bool {
	var pb, rb [32]byte
	for i, v := range p.Values {
		if v != nil && !bytes.Equal(v.AppendKey(pb[:0]), row[i].AppendKey(rb[:0])) {
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
	// candidate pattern (lattice depth); Summarize mines depths 1 and 2.
	maxFixedAttrs = 2
)

// Summarize derives a pattern cover for the target tuples of rel:
// targets[i] marks row i as explained. The result is a greedy weighted
// set cover over candidate patterns mined from the targets themselves; it
// is total because every target row mines depth-1 candidates that cover it.
//
// Everything runs on integer value ids: each distinct cell key
// (relation.CellKey, equal exactly when Value.AppendKey is) that a target
// row carries on an attribute gets one. A depth-1 candidate is a value id,
// a depth-2 candidate a pair of ids on two attributes, and a candidate's
// fixed values come from the first target row that carries it.
func Summarize(rel *relation.Relation, targets []bool) []*Pattern {
	n := rel.Len()
	if n == 0 || len(targets) != n {
		return nil
	}
	attrs := rel.Schema.Names()
	nAttr := len(attrs)
	var tgt []int32 // target rows, ascending
	for i, t := range targets {
		if t {
			tgt = append(tgt, int32(i))
		}
	}
	k := nAttr + nAttr*(nAttr-1)/2 // candidates per target row
	valIDs, pairIDs := newIDTable(len(tgt)), newIDTable(len(tgt)*(k-nAttr))

	// vid[i*nAttr+a] is row i's value id on attribute a, or -1 when no
	// target row carries the value there. Ids count attribute by attribute
	// in order of first appearance among the target rows, and value id g
	// is candidate g: cands[g].rep is the first target row carrying it.
	vid := make([]int32, n*nAttr)
	cands := make([]cand, 0, len(tgt)*k)
	var valAttr []int32
	var keys []relation.CellKey
	for a := range nAttr {
		keys = rel.ColumnCellKeys(keys[:0], a, rel.Dict())
		clear(valIDs.ids)
		for _, i := range tgt {
			g, fresh := valIDs.insert(keys[i], int32(len(cands)))
			if fresh {
				cands = append(cands, cand{rep: i, g: [2]int32{g, -1}})
				valAttr = append(valAttr, int32(a))
			}
			vid[int(i)*nAttr+a] = g
		}
		for i, ck := range keys {
			if !targets[i] {
				vid[i*nAttr+a] = valIDs.find(ck)
			}
		}
	}
	nVals := int32(len(cands))
	// pairKey keys the depth-2 candidate of ids ga < gb (on attributes
	// a < b) in pairIDs.
	pairKey := func(ga, gb int32) relation.CellKey { return relation.CellKey{Bits: uint64(ga)<<32 | uint64(gb)} }

	// Mining: hits lists each target row's k candidates, all of which
	// cover it.
	hits := make([]int32, 0, len(tgt)*k)
	for _, i := range tgt {
		row := vid[int(i)*nAttr : int(i+1)*nAttr]
		hits = append(hits, row...)
		for x, ga := range row {
			for _, gb := range row[x+1:] {
				c, fresh := pairIDs.insert(pairKey(ga, gb), int32(len(cands)))
				if fresh {
					cands = append(cands, cand{rep: i, g: [2]int32{ga, gb}})
				}
				hits = append(hits, c)
			}
		}
	}

	// Scoring: a non-target row instantiates a candidate exactly when its
	// ids on the candidate's attributes are the candidate's. Pairs are
	// probed only among the row's ids that are candidates themselves.
	falsePos := make([]int32, len(cands))
	active := make([]int32, 0, nAttr)
	for i := range n {
		if targets[i] {
			continue
		}
		active = active[:0]
		for _, g := range vid[i*nAttr : (i+1)*nAttr] {
			if g >= 0 {
				falsePos[g]++
				active = append(active, g)
			}
		}
		for x, ga := range active {
			for _, gb := range active[x+1:] {
				if c := pairIDs.find(pairKey(ga, gb)); c >= 0 {
					falsePos[c]++
				}
			}
		}
	}

	// covers[start[c]:start[c+1]] are the target ordinals (indexes into
	// tgt) that candidate c covers, bucketed from hits.
	start := make([]int32, len(cands)+1)
	for _, c := range hits {
		start[c+1]++
	}
	for c := range cands {
		start[c+1] += start[c]
	}
	fill := append([]int32(nil), start...)
	covers := make([]int32, len(hits))
	for h, c := range hits {
		covers[fill[c]] = int32(h / k)
		fill[c]++
	}

	// The heap and its tie-break keys: candidate c's key is
	// arena[off[c]:off[c+1]], "<attr>=<AppendKey>[|<attr>=<AppendKey>]",
	// the bytes the string-keyed summarizer ordered candidates by. A pair
	// covering exactly the rows, with exactly the false positives, of one
	// of its values always ties with it on ratio. When the value's key
	// sorts first — always for the first value, a prefix of the pair's
	// key; for the second when its attribute renders smaller ("10=" before
	// "2=") — the cover takes the value first and the pair then covers
	// nothing new, so the pair stays out of the heap.
	cnt := func(c int32) int32 { return start[c+1] - start[c] }
	same := func(c, g int32) bool { return cnt(c) == cnt(g) && falsePos[c] == falsePos[g] }
	h := candHeap{e: make([]heapEntry, 0, len(cands)), off: make([]uint32, len(cands)+1)}
	frag := func(g int32) []byte { return h.arena[h.off[g]:h.off[g+1]] }
	for c, cd := range cands {
		ga, gb, c := cd.g[0], cd.g[1], int32(c)
		live := c < nVals || !same(c, ga) && !(same(c, gb) && bytes.Compare(frag(gb), frag(ga)) < 0)
		if c < nVals {
			h.arena = strconv.AppendInt(h.arena, int64(valAttr[c]), 10)
			h.arena = rel.At(int(cd.rep), int(valAttr[c])).AppendKey(append(h.arena, '='))
		} else if live {
			h.arena = append(append(append(h.arena, frag(ga)...), '|'), frag(gb)...)
		}
		h.off[c+1] = uint32(len(h.arena))
		if live {
			h.e = append(h.e, heapEntry{c: c, newCover: cnt(c), ratio: ratio(cnt(c), falsePos[c])})
		}
	}

	// Greedy weighted set cover: repeatedly take the pattern with the best
	// (new coverage) / (pattern cost + false-positive cost) ratio, ties
	// broken by key bytes, then by candidate number (distinct candidates'
	// keys collide when a string holds "|<attr>=\x00"). The order is total,
	// so the heap's layout cannot change the pops. The selection is lazy:
	// coverage only shrinks, so re-scoring just the heap top until it is
	// fresh selects the same pattern an exhaustive rescan would.
	for i := len(h.e)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	covered := make([]bool, len(tgt))
	remaining := len(tgt)
	var out []*Pattern
	for remaining > 0 && len(h.e) > 0 {
		top := &h.e[0]
		c, cov, newCover := top.c, covers[start[top.c]:start[top.c+1]], int32(0)
		for _, t := range cov {
			if !covered[t] {
				newCover++
			}
		}
		if newCover != top.newCover && newCover > 0 {
			top.newCover, top.ratio = newCover, ratio(newCover, falsePos[c])
			h.down(0)
			continue
		}
		h.e[0] = h.e[len(h.e)-1]
		h.e = h.e[:len(h.e)-1]
		h.down(0)
		if newCover == 0 {
			continue
		}
		for _, t := range cov {
			if !covered[t] {
				covered[t] = true
				remaining--
			}
		}
		vals := make([]*relation.Value, nAttr)
		for _, g := range cands[c].g {
			if g >= 0 {
				v := rel.At(int(cands[c].rep), int(valAttr[g]))
				vals[valAttr[g]] = &v
			}
		}
		out = append(out, &Pattern{Attrs: attrs, Values: vals, Covered: int(newCover), FalsePos: int(falsePos[c])})
	}
	return out
}

// cand is a candidate: its value ids (g[1] is -1 at depth 1) and the first
// target row that carries them.
type cand struct {
	rep int32
	g   [2]int32
}

// ratio is a candidate's greedy score.
func ratio(newCover, falsePos int32) float64 {
	return float64(newCover) / (patternCost + falsePositiveCost*float64(falsePos))
}

// heapEntry is one lazy-greedy queue entry for candidate c; newCover and
// ratio may be stale (computed against an earlier, larger uncovered set)
// and are refreshed at the top of the heap before selection.
type heapEntry struct {
	c, newCover int32
	ratio       float64
}

// candHeap is a max-heap on ratio, ties broken by the candidates' keys
// arena[off[c]:off[c+1]] and then by candidate number.
type candHeap struct {
	e     []heapEntry
	arena []byte
	off   []uint32
}

func (h *candHeap) less(i, j int) bool {
	a, b := h.e[i], h.e[j]
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	d := bytes.Compare(h.arena[h.off[a.c]:h.off[a.c+1]], h.arena[h.off[b.c]:h.off[b.c+1]])
	return d < 0 || d == 0 && a.c < b.c
}

// down sifts entry i toward the leaves until the heap order holds.
func (h *candHeap) down(i int) {
	for {
		best := i
		for _, ch := range [2]int{2*i + 1, 2*i + 2} {
			if ch < len(h.e) && h.less(ch, best) {
				best = ch
			}
		}
		if best == i {
			return
		}
		h.e[i], h.e[best] = h.e[best], h.e[i]
		i = best
	}
}

// idTable numbers cell keys: a flat open-addressing table (linear
// probing) presized to at most 50% load for every key the target rows can
// carry, so it never grows. ids holds id+1; 0 marks an empty slot.
type idTable struct {
	keys []relation.CellKey
	ids  []int32
}

func newIDTable(hint int) *idTable {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	return &idTable{keys: make([]relation.CellKey, size), ids: make([]int32, size)}
}

// slot returns k's slot: the one holding k, or the empty one that ends
// its probe sequence.
func (t *idTable) slot(k relation.CellKey) int {
	mask := len(t.ids) - 1
	s := int(k.Mix(0)) & mask
	for t.ids[s] != 0 && t.keys[s] != k {
		s = (s + 1) & mask
	}
	return s
}

// find returns k's id, or -1.
func (t *idTable) find(k relation.CellKey) int32 { return t.ids[t.slot(k)] - 1 }

// insert returns k's id, giving it id if k is new.
func (t *idTable) insert(k relation.CellKey, id int32) (int32, bool) {
	s := t.slot(k)
	if t.ids[s] != 0 {
		return t.ids[s] - 1, false
	}
	t.keys[s], t.ids[s] = k, id+1
	return id, true
}
