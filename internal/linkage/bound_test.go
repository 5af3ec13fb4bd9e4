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
				ub := ps.bound(i, j, sharedCount(lv.block[i], ix.rBlock[j]))
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
