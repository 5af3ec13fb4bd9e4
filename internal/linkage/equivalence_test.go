package linkage

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/relation"
)

// randomRelation builds a relation with a controllable mix of strings
// (drawn from a shared vocabulary so blocking has work to do), numbers,
// NULLs, and mixed columns — the adversarial surface of the columnar
// refactor.
func randomRelation(rng *rand.Rand, name string, rows, cols int, d *relation.Dict) *relation.Relation {
	vocab := []string{
		"computer science", "data science", "electrical engineering",
		"fine arts", "arts and crafts", "science of logic", "logic",
		"mech eng", "n/a", "---", "biology 2", "2", "true",
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = fmt.Sprintf("c%d", j)
	}
	var r *relation.Relation
	if d != nil {
		r = relation.NewWithDict(d, name, names...)
	} else {
		r = relation.New(name, names...)
	}
	row := make(relation.Tuple, cols)
	for i := 0; i < rows; i++ {
		for j := range row {
			switch rng.Intn(10) {
			case 0:
				row[j] = relation.Null()
			case 1, 2:
				row[j] = relation.Int(int64(rng.Intn(6)))
			case 3:
				row[j] = relation.Float(float64(rng.Intn(4)) + 0.5)
			case 4:
				row[j] = relation.Bool(rng.Intn(2) == 0)
			default:
				row[j] = relation.String(vocab[rng.Intn(len(vocab))])
			}
		}
		r.AppendRow(row)
	}
	return r
}

// minSimGrid holds the MinSim values the randomized equivalence tests draw
// from: the permissive floors plus thresholds where the shared-token
// similarity bound rejects most candidates, including exact Jaccard values
// (3/5, 2/3, 3/4) and 1, and the high floors a calibrated probability
// floor raises MinSim to, where each row's prefix filter skips all but a
// few of its posting lists.
var minSimGrid = []float64{0, 0.05, 0.3, 0.5, 0.6, 2.0 / 3, 0.75, 0.9, 0.96, 0.98, 0.99, 1}

// similarities is the one-shot Stage-1 call: index the right side, then
// scan the left once.
func similarities(left, right *relation.Relation, leftIdx, rightIdx []int, opt PairOptions, workers int) ([]Match, error) {
	ix, err := BuildIndex(right, rightIdx, opt)
	if err != nil {
		return nil, err
	}
	return ix.Similarities(left, leftIdx, workers)
}

func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v (order and bits must be identical)", label, i, got[i], want[i])
		}
	}
}

// TestSimilaritiesMatchesPairwiseReference is the acceptance property of
// the inverted-index rewrite: over random relations — shared or separate
// dictionaries, every blocking threshold, any worker count — the columnar
// index scan must return byte-identical output to the pairwise reference
// implementation.
func TestSimilaritiesMatchesPairwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		cols := 1 + rng.Intn(3)
		var d *relation.Dict
		if rng.Intn(2) == 0 {
			d = relation.NewDict() // shared-dictionary fast path
		}
		left := randomRelation(rng, "L", 1+rng.Intn(60), cols, d)
		right := randomRelation(rng, "R", 1+rng.Intn(60), cols, d)
		idx := make([]int, cols)
		for j := range idx {
			idx[j] = j
		}
		// MinSharedTokens up to 4 exercises the skipped-posting-list paths
		// (global stop-word pruning, per-row prefix filtering with skip
		// budgets up to 3, and exact candidate verification).
		opt := PairOptions{
			MinSim:          minSimGrid[rng.Intn(len(minSimGrid))],
			MinSharedTokens: 1 + rng.Intn(4),
		}
		want, err := SimilaritiesPairwise(left, right, idx, idx, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 7} {
			got, err := similarities(left, right, idx, idx, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, fmt.Sprintf("trial %d workers %d (shared=%v)", trial, workers, d != nil), got, want)
		}
	}
}

// TestSimilaritiesStopWordPruning forces the skipped-posting-list path: a
// stop word appears in every row of both sides, so with MinSharedTokens > 1
// its posting list is dropped and borderline candidates (pairs that share
// only the stop word plus one more token) must survive through the exact
// shared-count verification — byte-identically to the pairwise reference.
func TestSimilaritiesStopWordPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	build := func(name string, rows int) *relation.Relation {
		r := relation.New(name, "c0")
		for i := 0; i < rows; i++ {
			s := "the " + vocab[rng.Intn(len(vocab))]
			if rng.Intn(3) == 0 {
				s += " " + vocab[rng.Intn(len(vocab))]
			}
			r.Append(s)
		}
		return r
	}
	left, right := build("L", 40), build("R", 40)
	for _, minShared := range []int{2, 3} {
		opt := PairOptions{MinSim: 0, MinSharedTokens: minShared}
		want, err := SimilaritiesPairwise(left, right, []int{0}, []int{0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("minShared=%d: degenerate workload, no reference matches", minShared)
		}
		for _, workers := range []int{1, 4} {
			got, err := similarities(left, right, []int{0}, []int{0}, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, fmt.Sprintf("stop-word minShared=%d workers=%d", minShared, workers), got, want)
		}
	}
}

// TestSimilaritiesPerRowPrefixFilter forces the per-left-row prefix filter
// beyond the global stop-word prune: several tokens appear in most rows of
// both sides, so with the global skip budget exhausted on one of them each
// left row must still row-skip its own remaining long posting lists. Pairs
// whose shared tokens are exactly the skipped ones plus a tail token sit in
// the uncertain band and must survive only through the exact shared-count
// verification — byte-identically to the pairwise reference.
func TestSimilaritiesPerRowPrefixFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	common := []string{"the", "of", "and"}
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	build := func(name string, rows int) *relation.Relation {
		r := relation.New(name, "c0")
		for i := 0; i < rows; i++ {
			// Each row carries one to three of the high-frequency tokens
			// plus one or two rare ones, so row-local posting lists differ
			// and the longest-surviving selection varies per row.
			s := ""
			for k := 0; k <= rng.Intn(3); k++ {
				s += common[rng.Intn(len(common))] + " "
			}
			s += vocab[rng.Intn(len(vocab))]
			if rng.Intn(2) == 0 {
				s += " " + vocab[rng.Intn(len(vocab))]
			}
			r.Append(s)
		}
		return r
	}
	left, right := build("L", 60), build("R", 60)
	for _, minShared := range []int{2, 3, 4} {
		opt := PairOptions{MinSim: 0, MinSharedTokens: minShared}
		want, err := SimilaritiesPairwise(left, right, []int{0}, []int{0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if minShared < 4 && len(want) == 0 {
			t.Fatalf("minShared=%d: degenerate workload, no reference matches", minShared)
		}
		for _, workers := range []int{1, 4} {
			got, err := similarities(left, right, []int{0}, []int{0}, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, fmt.Sprintf("prefix-filter minShared=%d workers=%d", minShared, workers), got, want)
		}
	}
}

// TestSimilaritiesNumericOnlyColumns: with no tokenizable column, blocking
// is meaningless and both implementations must fall back to the scored
// cross product.
func TestSimilaritiesNumericOnlyColumns(t *testing.T) {
	left := relation.New("L", "a").Append(int64(1)).Append(2.5).Append(nil)
	right := relation.New("R", "a").Append(int64(1)).Append(2.0)
	opt := PairOptions{MinSim: 0.05, MinSharedTokens: 1}
	want, err := SimilaritiesPairwise(left, right, []int{0}, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := similarities(left, right, []int{0}, []int{0}, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "numeric-only", got, want)
	if len(got) == 0 {
		t.Fatal("numeric cross product should score at least the exact pair")
	}
}

// TestSimilaritiesThresholdPrefixFilter drives the MinSim-derived skip
// budget: long multi-token titles next to a numeric column and a NULL-heavy
// one, so at a high MinSim a pair must share many more tokens than
// MinSharedTokens and each left row skips most of its posting lists, while
// rows whose NULLs cap their similarity below MinSim are skipped outright.
// The right side perturbs left titles by a word or two, so many pairs sit
// right at the shared-token count the budget assumes. Every threshold and
// worker count must match the pairwise reference byte for byte, and the
// fixed rows 0 and 1 pin need itself.
func TestSimilaritiesThresholdPrefixFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vocab := make([]string, 24)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	words := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	join := func(ws []string) string {
		s := ws[0]
		for _, w := range ws[1:] {
			s += " " + w
		}
		return s
	}
	note := func() any {
		if rng.Intn(10) < 7 {
			return nil
		}
		return join(words(1 + rng.Intn(2)))
	}
	d := relation.NewDict()
	left := relation.NewWithDict(d, "L", "title", "year", "note")
	right := relation.NewWithDict(d, "R", "title", "year", "note")
	// Row 0: ten distinct title tokens and a NULL note, so its similarity
	// to any right row is at most (m/10 + 1 + 0)/3 with m shared tokens.
	// Row 1: two title tokens and a NULL note, capped at (1 + 1 + 0)/3.
	left.Append("a0 a1 a2 a3 a4 a5 a6 a7 a8 a9", int64(2000), nil)
	left.Append("a0 a1", int64(2000), nil)
	right.Append("a0 a1 a2 a3 a4 a5 a6 x y", int64(2000), "z")
	right.Append("a0 a1", int64(2000), "z")
	var titles [][]string
	for i := 0; i < 80; i++ {
		ws := words(4 + rng.Intn(6))
		titles = append(titles, ws)
		left.Append(join(ws), int64(2000+rng.Intn(3)), note())
	}
	for i := 0; i < 80; i++ {
		ws := append([]string(nil), titles[rng.Intn(len(titles))]...)
		switch rng.Intn(3) {
		case 0:
			ws[rng.Intn(len(ws))] = vocab[rng.Intn(len(vocab))]
		case 1:
			ws = append(ws, vocab[rng.Intn(len(vocab))])
		default:
			ws = words(4 + rng.Intn(6))
		}
		right.Append(join(ws), int64(2000+rng.Intn(3)), note())
	}
	idx := []int{0, 1, 2}
	for _, tc := range []struct {
		minSim       float64
		need0, need1 int // need of the fixed rows at MinSharedTokens 1
	}{
		{0.45, 4, 1}, {0.55, 7, 2}, {0.62, 9, 2}, {0.65, 10, 2}, {0.7, 0, 0},
		{0.8, 0, 0}, {0.9, 0, 0},
	} {
		for mst := 1; mst <= 3; mst++ {
			opt := PairOptions{MinSim: tc.minSim, MinSharedTokens: mst}
			ix, err := BuildIndex(right, idx, opt)
			if err != nil {
				t.Fatal(err)
			}
			lv := ix.buildLeftView(left, idx)
			lv.block = unionRows(lv.tok, lv.n)
			ps := pairScorer{ix: ix, lv: lv}
			if mst == 1 {
				if got := ps.need(0, len(lv.block[0])); got != tc.need0 {
					t.Fatalf("MinSim %v: need(row 0) = %d, want %d", tc.minSim, got, tc.need0)
				}
				if got := ps.need(1, len(lv.block[1])); got != tc.need1 {
					t.Fatalf("MinSim %v: need(row 1) = %d, want %d", tc.minSim, got, tc.need1)
				}
			}
			raised, skipped := 0, 0
			for i := 0; i < lv.n; i++ {
				switch n := ps.need(i, len(lv.block[i])); {
				case n == 0:
					skipped++
				case n > mst:
					raised++
				}
			}
			want, err := SimilaritiesPairwise(left, right, idx, idx, opt)
			if err != nil {
				t.Fatal(err)
			}
			if (tc.minSim < 0.9 && len(want) == 0) || raised+skipped == 0 || (tc.minSim >= 0.7 && skipped == 0) {
				t.Fatalf("MinSim %v mst=%d: degenerate workload: %d matches, %d rows with need > mst, %d rows skipped",
					tc.minSim, mst, len(want), raised, skipped)
			}
			for _, workers := range []int{1, 4} {
				got, err := ix.Similarities(left, idx, workers)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("MinSim %v mst=%d workers=%d", tc.minSim, mst, workers), got, want)
			}
		}
	}
}
