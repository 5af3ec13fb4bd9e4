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
// (3/5, 2/3, 3/4) and 1.
var minSimGrid = []float64{0, 0.05, 0.3, 0.5, 0.6, 2.0 / 3, 0.75, 1}

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
			// The global-prune-only path (pre-filter behavior) must agree too.
			disableRowPrefixFilter = true
			off, err := similarities(left, right, []int{0}, []int{0}, opt, workers)
			disableRowPrefixFilter = false
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, fmt.Sprintf("prefix-filter-off minShared=%d workers=%d", minShared, workers), off, want)
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
