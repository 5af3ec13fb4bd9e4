package linkage

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/relation"
)

// boundCase is a hand-built relation pair whose first rows form a boundary
// pair: a token-column Jaccard of exactly 3/5, 2/3 or 4/5 combined with
// numeric, NULL and mixed-kind columns into the similarity want.
type boundCase struct {
	name           string
	lKinds, rKinds []string // per matched column: "tok", "num" or "mixed"
	l, r           []any    // the boundary pair's cells
	want           float64
}

// mean combines per-column similarities the way the scorer does, in float64
// at run time (a constant expression would be evaluated exactly and round
// differently).
func mean(terms ...float64) float64 {
	total := 0.0
	for _, x := range terms {
		total += x
	}
	return total / float64(len(terms))
}

// boundRelation builds a relation whose row 0 is boundary and whose other
// rows are random cells of the given column kinds. Token cells draw "the"
// and "of" often enough that their posting lists are the longest, so
// MinSharedTokens > 1 prunes and prefix-filters them.
func boundRelation(rng *rand.Rand, name string, kinds []string, boundary []any, rows int) *relation.Relation {
	names := make([]string, len(kinds))
	for k := range names {
		names[k] = fmt.Sprintf("c%d", k)
	}
	r := relation.New(name, names...).Append(boundary...)
	vocab := []string{"a", "b", "c", "d", "e", "x", "y"}
	words := func() string {
		s := vocab[rng.Intn(len(vocab))]
		for w := rng.Intn(3); w > 0; w-- {
			s += " " + vocab[rng.Intn(len(vocab))]
		}
		if rng.Intn(2) == 0 {
			s = "the " + s
		}
		if rng.Intn(2) == 0 {
			s = "of " + s
		}
		return s
	}
	row := make([]any, len(kinds))
	for i := 1; i < rows; i++ {
		for k, kind := range kinds {
			switch {
			case rng.Intn(8) == 0:
				row[k] = nil
			case kind == "num" || (kind == "mixed" && rng.Intn(2) == 0):
				row[k] = int64(rng.Intn(4))
			default:
				row[k] = words()
			}
		}
		r.Append(row...)
	}
	return r
}

// TestSimilarityBoundExactThresholds sets MinSim to exactly the boundary
// pair's similarity, so the pair must be kept: a similarity bound that
// rounds below the score, or that ignores the shared tokens hidden by
// pruned and prefix-filtered posting lists, drops it. Every blocking
// threshold and worker count must match the pairwise reference byte for
// byte.
func TestSimilarityBoundExactThresholds(t *testing.T) {
	cases := []boundCase{
		{
			name:   "jaccard 3/5",
			lKinds: []string{"tok"}, rKinds: []string{"tok"},
			l: []any{"the of a b"}, r: []any{"the of a c"},
			want: mean(3.0 / 5),
		},
		{
			name:   "jaccard 2/3 + numeric",
			lKinds: []string{"tok", "num"}, rKinds: []string{"tok", "num"},
			l: []any{"the of a b", int64(7)}, r: []any{"the of a b c d", int64(7)},
			want: mean(2.0/3, 1),
		},
		{
			name:   "jaccard 4/5 + NULL",
			lKinds: []string{"tok", "tok"}, rKinds: []string{"tok", "tok"},
			l: []any{"the of a b", nil}, r: []any{"the of a b c", "x y"},
			want: mean(4.0/5, 0),
		},
		{
			// Column 2 pairs a numeric-only left column with a mixed-kind
			// right one: numeric cell pairs score NumericSim, the rest take
			// the asymmetric generic path.
			name:   "jaccard 4/5 + numeric + mixed kinds",
			lKinds: []string{"num", "tok", "num"}, rKinds: []string{"num", "tok", "mixed"},
			l: []any{int64(5), "of the a b", int64(3)}, r: []any{int64(5), "the of a b c", int64(3)},
			want: mean(1, 4.0/5, 1),
		},
	}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		left := boundRelation(rng, "L", tc.lKinds, tc.l, 40)
		right := boundRelation(rng, "R", tc.rKinds, tc.r, 40)
		idx := make([]int, len(tc.lKinds))
		for k := range idx {
			idx[k] = k
		}
		all, err := SimilaritiesPairwise(left, right, idx, idx, PairOptions{MinSharedTokens: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 || all[0].L != 0 || all[0].R != 0 || all[0].Sim != tc.want {
			t.Fatalf("%s: boundary pair not scored %v: %+v", tc.name, tc.want, all[:min(1, len(all))])
		}
		for mst := 1; mst <= 3; mst++ {
			opt := PairOptions{MinSim: tc.want, MinSharedTokens: mst}
			want, err := SimilaritiesPairwise(left, right, idx, idx, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || want[0].L != 0 || want[0].R != 0 {
				t.Fatalf("%s mst=%d: reference drops the boundary pair", tc.name, mst)
			}
			for _, workers := range []int{1, 3} {
				got, err := similarities(left, right, idx, idx, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("%s mst=%d workers=%d", tc.name, mst, workers), got, want)
			}
		}
	}
}

// sharedCount counts the common elements of two sorted distinct slices.
func sharedCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// TestSimilarityBoundAboveScore is the soundness property of the scan's
// rejection test: over random relations with numeric, NULL, bool and
// mixed-kind cells, the bound at the pair's true shared blocking-token
// count is at least the score's similarity, bit for bit, for every pair.
func TestSimilarityBoundAboveScore(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pairs := 0
	for trial := 0; trial < 30; trial++ {
		cols := 1 + rng.Intn(3)
		var d *relation.Dict
		if rng.Intn(2) == 0 {
			d = relation.NewDict()
		}
		left := randomRelation(rng, "L", 1+rng.Intn(40), cols, d)
		right := randomRelation(rng, "R", 1+rng.Intn(40), cols, d)
		idx := make([]int, cols)
		for k := range idx {
			idx[k] = k
		}
		ix, err := BuildIndex(right, idx, PairOptions{MinSharedTokens: 1})
		if err != nil {
			t.Fatal(err)
		}
		lv := ix.buildLeftView(left, idx)
		lv.block = unionRows(lv.tok, lv.n)
		ps := pairScorer{ix: ix, lv: lv}
		for i := 0; i < lv.n; i++ {
			for j := 0; j < ix.nRight; j++ {
				ub := ps.bound(i, ix.rShape[j], sharedCount(lv.block[i], ix.rBlock[j]))
				if !(ub >= 0) {
					t.Fatalf("trial %d pair (%d, %d): bound %v is not a non-negative number", trial, i, j, ub)
				}
				if ms := ps.score(i, j, nil); len(ms) == 1 && ms[0].Sim > ub {
					t.Fatalf("trial %d pair (%d, %d): similarity %v above its bound %v", trial, i, j, ms[0].Sim, ub)
				}
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs checked")
	}
}

// pairBound is the per-pair similarity bound the scan used before right
// rows were grouped by shape: bound read off right row j's own cells. It
// is the oracle for the shape table and the integer thresholds.
func pairBound(ps pairScorer, i, j, shared int) float64 {
	lv, ix := ps.lv, ps.ix
	total := 0.0
	for k := range lv.cols {
		lc, rc := &lv.cols[k], &ix.rCols[k]
		if lc.null[i] || rc.null[j] {
			continue
		}
		switch {
		case lc.num[i] && rc.num[j]:
			total++
		case lv.tok[k] != nil && ix.rTok[k] != nil:
			a, b := len(lv.tok[k][i]), len(ix.rTok[k][j])
			if a == 0 || b == 0 {
				continue
			}
			m := min(shared, a, b)
			total += float64(m) / float64(a+b-m)
		default:
			total++
		}
	}
	return total / float64(len(lv.cols))
}

// checkThresholds checks, for every left row, every right shape and every
// shared count s in 0..len(block)+1, that s reaches the row's threshold
// for the shape exactly when pairBound passes MinSim for each right row of
// that shape. It returns the number of shapes.
func checkThresholds(t *testing.T, label string, left, right *relation.Relation, opt PairOptions) int {
	t.Helper()
	idx := make([]int, len(left.Schema.Columns))
	for k := range idx {
		idx[k] = k
	}
	ix, err := BuildIndex(right, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	lv := ix.buildLeftView(left, idx)
	lv.block = unionRows(lv.tok, lv.n)
	ps := pairScorer{ix: ix, lv: lv}
	nShapes := len(ix.shapes) / len(idx)
	byShape := make([][]int, nShapes)
	for j, q := range ix.rShape {
		byShape[q] = append(byShape[q], j)
	}
	for q, rows := range byShape {
		if len(rows) == 0 {
			t.Fatalf("%s: shape %d has no right row", label, q)
		}
	}
	for i := 0; i < lv.n; i++ {
		n := len(lv.block[i])
		for q, rows := range byShape {
			thr := int(ps.threshold(i, int32(q), n))
			for s := 0; s <= n+1; s++ {
				for _, j := range rows {
					ub := pairBound(ps, i, j, s)
					if pass := !(ub < opt.MinSim || ub <= 0); pass != (s >= thr) {
						t.Fatalf("%s: row %d, right row %d (shape %d), shared %d: bound %v passes=%v, threshold %d", label, i, j, q, s, ub, pass, thr)
					}
				}
			}
		}
	}
	return nShapes
}

// TestBoundThresholdsMatchPairwise pins the integer rejection test of
// the scan: over random relations with token, numeric and mixed-kind
// columns and NULLs, comparing the shared count with the per-(row, shape)
// threshold decides exactly what the per-pair float bound decides.
func TestBoundThresholdsMatchPairwise(t *testing.T) {
	kinds := [][]string{
		{"tok"}, {"num"}, {"mixed"}, {"tok", "num"}, {"tok", "tok"},
		{"num", "tok", "mixed"}, {"mixed", "tok"},
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		lk := kinds[rng.Intn(len(kinds))]
		rk := make([]string, len(lk))
		for k := range rk {
			rk[k] = []string{"tok", "num", "mixed"}[rng.Intn(3)]
		}
		cells := func(kinds []string) []any {
			row := make([]any, len(kinds))
			for k, kind := range kinds {
				if kind == "num" {
					row[k] = int64(1)
				} else {
					row[k] = "the of a b"
				}
			}
			return row
		}
		left := boundRelation(rng, "L", lk, cells(lk), 25)
		right := boundRelation(rng, "R", rk, cells(rk), 30)
		for mst := 1; mst <= 3; mst++ {
			opt := PairOptions{MinSim: minSimGrid[rng.Intn(len(minSimGrid))], MinSharedTokens: mst}
			checkThresholds(t, fmt.Sprintf("trial %d %v/%v mst=%d minSim=%v", trial, lk, rk, mst, opt.MinSim), left, right, opt)
		}
	}
}

// TestBoundThresholdsOneShapePerRow gives every right row a shape of its
// own (a distinct pair of token counts over two token columns), so the
// per-shape threshold memo degenerates to one entry per right row: the
// thresholds must still match the per-pair bound and the scan the pairwise
// reference.
func TestBoundThresholdsOneShapePerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	words := func(n int) string {
		s := "the"
		for w := 1; w < n; w++ {
			s += fmt.Sprintf(" %c%d", 'a'+rng.Intn(3), w) // distinct per position
		}
		return s
	}
	right := relation.New("R", "c0", "c1")
	for a := 1; a <= 5; a++ {
		for b := 1; b <= 5; b++ {
			right.Append(words(a), words(b))
		}
	}
	left := relation.New("L", "c0", "c1")
	for i := 0; i < 30; i++ {
		left.Append(words(1+rng.Intn(5)), words(1+rng.Intn(5)))
	}
	idx := []int{0, 1}
	for mst := 1; mst <= 3; mst++ {
		for _, minSim := range []float64{0.05, 0.3, 0.5, 2.0 / 3} {
			opt := PairOptions{MinSim: minSim, MinSharedTokens: mst}
			label := fmt.Sprintf("mst=%d minSim=%v", mst, minSim)
			if n := checkThresholds(t, label, left, right, opt); n != right.Len() {
				t.Fatalf("%s: %d shapes over %d right rows, want one per row", label, n, right.Len())
			}
			want, err := SimilaritiesPairwise(left, right, idx, idx, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				got, err := similarities(left, right, idx, idx, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("%s workers=%d", label, workers), got, want)
			}
		}
	}
}
