package summarize

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"explain3d/internal/relation"
)

// refSummarize is the string-keyed summarizer that Summarize replaced,
// kept verbatim as the differential reference: it renders every candidate
// as a byte key "a=<key>|b=<key>" and mines, scores and covers through a
// map on those keys.
func refSummarize(rel *relation.Relation, targets []bool) []*Pattern {
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
	cands := make(map[string]*refScored, 4*nTargets)
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
			cands[k] = &refScored{p: &Pattern{Attrs: attrs, Values: vals}, order: k}
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
		bump := func(s *refScored) {
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
	pool := make([]*refScored, 0, len(cands))
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
	h := make(refCandHeap, len(pool))
	for i, s := range pool {
		h[i] = refHeapEntry{
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

// refScored is a candidate pattern with its coverage statistics and its
// deterministic tie-break key (the candidate's canonical map key).
type refScored struct {
	p        *Pattern
	covers   []int
	falsePos int
	order    string
}

// refHeapEntry is one lazy-greedy queue entry; newCover and ratio may be stale
// (computed against an earlier, larger uncovered set) and are refreshed at
// the top of the heap before selection.
type refHeapEntry struct {
	s        *refScored
	newCover int
	ratio    float64
	order    string
}

// refCandHeap is a max-heap on ratio with the candidate key breaking ties,
// which makes the ordering total and the pop sequence deterministic.
type refCandHeap []refHeapEntry

func (h refCandHeap) Len() int { return len(h) }

func (h refCandHeap) Less(i, j int) bool {
	if h[i].ratio > h[j].ratio {
		return true
	}
	if h[i].ratio < h[j].ratio {
		return false
	}
	return h[i].order < h[j].order
}

func (h refCandHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refCandHeap) Push(x any) { *h = append(*h, x.(refHeapEntry)) }

func (h *refCandHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// casePool is the value pool decoded relations draw cells from: strings
// that are prefixes of each other or hold the key encoding's separators,
// numbers whose keys fold together (2 and 2.0, 0.0 and -0.0, NaN payloads)
// or whose floats do (2^53 and 2^53+1), and booleans.
var casePool = []relation.Value{
	// strings: 0–11
	relation.String("Drama"), relation.String("Dramatic"), relation.String("Dram"),
	relation.String("2"), relation.String("2.0"), relation.String("a|b"),
	relation.String("|"), relation.String("="), relation.String("1=x|2="),
	relation.String("a\x00b"), relation.String(""), relation.String("\x00S"),
	// ints: 12–17
	relation.Int(2), relation.Int(0), relation.Int(-1),
	relation.Int(9007199254740993), relation.Int(9007199254740992), relation.Int(1e15),
	// floats: 18–27
	relation.Float(2), relation.Float(0), relation.Float(math.Copysign(0, -1)),
	relation.Float(2.5), relation.Float(math.Float64frombits(0x7ff8000000000001)),
	relation.Float(math.Float64frombits(0x7ff0000000000002)), relation.Float(math.Inf(1)),
	relation.Float(1e15), relation.Float(9007199254740992), relation.Float(-2),
	// bools: 28–29
	relation.Bool(true), relation.Bool(false),
}

// caseModes are the column modes: the pool range a column's cells come
// from. Mode 3 mixes every kind into one boxed column; mode 4 mixes
// numeric and other strings, ints and integral floats; mode 6 is all NULL;
// mode 7 reads raw strings from the input.
var caseModes = [][2]int{{0, 12}, {12, 18}, {18, 28}, {0, 30}, {3, 21}, {28, 30}, {0, 0}, {0, 0}}

// decodeCase turns bytes into a small relation and target mask. Byte 0
// picks the attribute count (1–13), byte 1 the row count (1–32), byte 2
// the target mode (bits from the input, all, none, first row only); then
// one byte per attribute picks its column mode and one byte per cell its
// value (15 mod 16 is NULL). Raw-string cells take a length byte and that
// many bytes (0–7). The remaining bytes are the target bits; exhausted input
// reads as zeros.
func decodeCase(data []byte) (*relation.Relation, []bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nAttr, nRows, tmode := 1+int(next())%13, 1+int(next())%32, next()%4
	cols := make([]string, nAttr)
	modes := make([]int, nAttr)
	for a := range cols {
		cols[a] = fmt.Sprintf("c%d", a)
		modes[a] = int(next()) % len(caseModes)
	}
	rel := relation.New("T", cols...)
	row := make(relation.Tuple, nAttr)
	for i := 0; i < nRows; i++ {
		for a, m := range modes {
			b := int(next())
			switch lo, hi := caseModes[m][0], caseModes[m][1]; {
			case m == 7:
				s := make([]byte, b%8)
				for j := range s {
					s[j] = next()
				}
				row[a] = relation.String(string(s))
			case b%16 == 15 || lo == hi:
				row[a] = relation.Null()
			default:
				row[a] = casePool[lo+b%(hi-lo)]
			}
		}
		rel.AppendRow(row)
	}
	targets := make([]bool, nRows)
	for i := range targets {
		switch tmode {
		case 0:
			targets[i] = next()&1 == 1
		case 1:
			targets[i] = true
		case 3:
			targets[i] = i == 0
		}
	}
	return rel, targets
}

// keyCollision matches a string whose byte key can read as a depth-2
// key's separator and second attribute ("|<attr>=" then a key's leading
// NUL): refSummarize merges such distinct candidates into one.
var keyCollision = regexp.MustCompile(`\|[0-9]+=\x00`)

// ambiguous reports whether rel holds a string refSummarize's keys cannot
// tell apart from a composite key.
func ambiguous(rel *relation.Relation) bool {
	for _, row := range rel.Tuples() {
		for _, v := range row {
			if v.Kind() == relation.KindString && keyCollision.MatchString(v.Str()) {
				return true
			}
		}
	}
	return false
}

// sameValue reports whether two pattern values are the same cell bit for
// bit: kind, payload, float sign and NaN payload.
func sameValue(a, b *relation.Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind() == b.Kind() && a.Str() == b.Str() && a.IntVal() == b.IntVal() &&
		math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal()) && a.BoolVal() == b.BoolVal()
}

// diffPatterns describes the first difference between two summaries.
func diffPatterns(got, want []*Pattern) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d patterns, want %d", len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if !slices.Equal(g.Attrs, w.Attrs) || g.String() != w.String() || g.Covered != w.Covered || g.FalsePos != w.FalsePos {
			return fmt.Sprintf("pattern %d: %s (covered %d, fp %d), want %s (covered %d, fp %d)",
				k, g, g.Covered, g.FalsePos, w, w.Covered, w.FalsePos)
		}
		for a := range g.Values {
			if !sameValue(g.Values[a], w.Values[a]) {
				return fmt.Sprintf("pattern %d (%s): attribute %d holds %#v, want %#v", k, g, a, g.Values[a], w.Values[a])
			}
		}
	}
	return ""
}

// countsAgree checks each pattern's Covered and FalsePos against Matches
// over the relation — Covered counts target rows no earlier pattern
// matched — and that the cover is total.
func countsAgree(rel *relation.Relation, targets []bool, pats []*Pattern) string {
	covered := make([]bool, rel.Len())
	rows := rel.Tuples()
	for k, p := range pats {
		newCover, fp := 0, 0
		for i, row := range rows {
			switch {
			case !p.Matches(row):
			case !targets[i]:
				fp++
			case !covered[i]:
				covered[i] = true
				newCover++
			}
		}
		if newCover != p.Covered || fp != p.FalsePos {
			return fmt.Sprintf("pattern %d (%s): Matches counts covered %d, fp %d; Summarize reported %d, %d",
				k, p, newCover, fp, p.Covered, p.FalsePos)
		}
	}
	for i, t := range targets {
		if t && !covered[i] {
			return fmt.Sprintf("target row %d uncovered", i)
		}
	}
	return ""
}

// dumpCase renders a decoded case for failure messages.
func dumpCase(rel *relation.Relation, targets []bool) string {
	var b strings.Builder
	for i, row := range rel.Tuples() {
		fmt.Fprintf(&b, "\n  %v", targets[i])
		for _, v := range row {
			fmt.Fprintf(&b, " %s:%q", v.Kind(), v.String())
		}
	}
	return b.String()
}

// checkCase summarizes one decoded case and compares it with refSummarize
// (unless its keys are ambiguous) and with Matches counts.
func checkCase(t *testing.T, data []byte) {
	t.Helper()
	rel, targets := decodeCase(data)
	got := Summarize(rel, targets)
	if !ambiguous(rel) {
		if d := diffPatterns(got, refSummarize(rel, targets)); d != "" {
			t.Fatalf("Summarize differs from refSummarize on %q: %s%s", data, d, dumpCase(rel, targets))
		}
	}
	if d := countsAgree(rel, targets, got); d != "" {
		t.Fatalf("counts on %q: %s%s", data, d, dumpCase(rel, targets))
	}
}

// summarizeCases are hand-picked inputs for decodeCase (header: attribute
// count - 1, row count - 1, target mode, column modes; then the cells).
var summarizeCases = [][]byte{
	// "2" (target) next to 2 and 2.0 in one boxed column.
	{0, 3, 0, 3, 3, 12, 18, 3, 1, 0, 0, 1},
	// 2 and 2.0 with the float in the first target row; 0.0 next to -0.0.
	{1, 4, 0, 4, 2, 9, 1, 33, 2, 9, 1, 9, 2, 33, 1, 0, 1, 1, 1, 0},
	// NaN payloads, +Inf and NULLs in a float and a boxed column.
	{1, 5, 0, 2, 3, 4, 22, 5, 15, 15, 22, 5, 22, 6, 15, 4, 23, 1, 1, 0, 1, 0, 0},
	// Prefix strings tied at depth 2: "Dramatic|" sorts before "Drama|"
	// because 't' < '|'; separators and NULs inside strings.
	{1, 7, 0, 0, 0, 0, 5, 1, 5, 0, 6, 1, 7, 2, 5, 9, 8, 11, 10, 10, 11, 1, 1, 0, 0, 0, 1, 1, 0},
	// 13 attributes tied on c2 and c10: "10=" sorts before "2=".
	{12, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1,
		2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2,
		3, 3, 0, 3, 3, 3, 3, 3, 3, 3, 0, 3, 3},
	// No targets, with an all-NULL column.
	{2, 9, 2, 0, 6, 3, 1, 0, 2, 3, 0, 4, 1, 0, 2},
	// One row.
	{3, 0, 1, 3, 6, 4, 7, 12, 0, 5, 3, 'a', '|', 'b'},
	// All targets over boxed and numeric columns.
	{2, 5, 1, 3, 4, 0, 3, 0, 1, 12, 9, 1, 18, 33, 2, 3, 0, 1, 12, 1, 1, 29, 15, 0},
	// A string that renders like a composite key: refSummarize merges
	// c0="x|1=\x00Sy" with c0="x" ∧ c1="y"; Summarize keeps them apart.
	{1, 1, 1, 7, 7, 7, 'x', '|', '1', '=', 0, 'S', 'y', 1, 'z', 1, 'x', 1, 'y'},
}

func TestSummarizeMatchesReference(t *testing.T) {
	orig := relation.SegmentSize()
	defer relation.SetSegmentSize(orig)
	rng := rand.New(rand.NewSource(24))
	cases := slices.Clone(summarizeCases)
	for len(cases) < 300 {
		// A random header, then cells and target bits drawn from a small
		// palette of bytes so that values repeat within a column.
		palette := make([]byte, 2+rng.Intn(4))
		rng.Read(palette)
		data := make([]byte, 16+rng.Intn(600))
		rng.Read(data[:16])
		for i := 16; i < len(data); i++ {
			data[i] = palette[rng.Intn(len(palette))]
		}
		cases = append(cases, data)
	}
	for _, seg := range []int{1, 7, 4096} {
		relation.SetSegmentSize(seg)
		for _, data := range cases {
			checkCase(t, data)
		}
	}
}

// TestPatternMatchesAgreesWithCounts pins Matches to the key equality
// Summarize counts by: "2" is not 2, and 2^53+1 is not 2^53, though both
// pairs compare equal as numbers.
func TestPatternMatchesAgreesWithCounts(t *testing.T) {
	for _, pair := range [][2]any{{"2", 2}, {int64(9007199254740993), int64(9007199254740992)}, {2.0, "2.0"}} {
		rel := relation.New("T", "x")
		rel.Append(pair[0])
		rel.Append(pair[1])
		targets := []bool{true, false}
		if d := countsAgree(rel, targets, Summarize(rel, targets)); d != "" {
			t.Errorf("%v: %s", pair, d)
		}
	}
	for _, data := range summarizeCases {
		rel, targets := decodeCase(data)
		if d := countsAgree(rel, targets, Summarize(rel, targets)); d != "" {
			t.Errorf("%q: %s%s", data, d, dumpCase(rel, targets))
		}
	}
}

// FuzzSummarize decodes the input into a small mixed-kind relation and
// target mask and checks Summarize against refSummarize and Matches. Its
// seeds under testdata/fuzz/FuzzSummarize are summarizeCases.
func FuzzSummarize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCase(t, data)
	})
}
