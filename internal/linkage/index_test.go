package linkage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"explain3d/internal/relation"
)

// indexTestRelations builds a left/right relation pair with overlapping
// token vocabulary, numeric columns, and NULLs — enough variety to reach
// every similarity dispatch path in the scan.
func indexTestRelations(seed int64, nLeft, nRight int) (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"computer", "science", "fine", "arts", "north", "campus",
		"intro", "advanced", "systems", "theory", "lab", "seminar"}
	phrase := func() string {
		k := 1 + rng.Intn(4)
		s := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				s += " "
			}
			s += vocab[rng.Intn(len(vocab))]
		}
		return s
	}
	build := func(name string, n int) *relation.Relation {
		r := relation.NewWithDict(relation.NewDict(), name, "name", "year")
		for i := 0; i < n; i++ {
			v := phrase()
			if rng.Intn(10) == 0 {
				v = "" // empty cell: tokenless string
			}
			r.Append(v, int64(2000+rng.Intn(6)))
		}
		return r
	}
	return build("L", nLeft), build("R", nRight)
}

// TestIndexMatchesOneShot pins that an Index reused across scans — whose
// token space already holds earlier left sides' tokens — produces output
// identical to a one-shot build and scan of the same inputs, across
// blocking thresholds and worker counts.
func TestIndexMatchesOneShot(t *testing.T) {
	left, right := indexTestRelations(42, 120, 90)
	idx := []int{0, 1}
	for _, minShared := range []int{1, 2, 3, 4} {
		opt := DefaultPairOptions()
		opt.MinSharedTokens = minShared
		want, err := similarities(left, right, idx, idx, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(right, idx, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := ix.Similarities(left, idx, workers)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, fmt.Sprintf("minShared=%d workers=%d", minShared, workers), got, want)
		}
	}
}

// TestIndexNoBlocking covers the unblocked cross-product path: with only
// numeric matched columns there is nothing to block on, so every pair is
// scored.
func TestIndexNoBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	build := func(name string, n int) *relation.Relation {
		r := relation.New(name, "year", "score")
		for i := 0; i < n; i++ {
			var score any = float64(rng.Intn(8)) * 0.5
			if rng.Intn(10) == 0 {
				score = nil
			}
			r.Append(int64(2000+rng.Intn(6)), score)
		}
		return r
	}
	left, right := build("L", 40), build("R", 30)
	idx := []int{0, 1}
	opt := DefaultPairOptions()
	want, err := SimilaritiesPairwise(left, right, idx, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate workload: no reference matches")
	}
	ix, err := BuildIndex(right, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ix.blockedScan(ix.buildLeftView(left, idx)) {
		t.Fatal("numeric-only matched columns must take the cross-product path")
	}
	got, err := ix.Similarities(left, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "no blocking", got, want)
}

// TestIndexConcurrentReuse fires many concurrent scans — different left
// relations against one shared Index — and checks each against its own
// one-shot build and scan. Run under -race: this is the serving pattern, where one
// prebuilt index serves all requests.
func TestIndexConcurrentReuse(t *testing.T) {
	_, right := indexTestRelations(1, 10, 150)
	idx := []int{0, 1}
	opt := DefaultPairOptions()
	opt.MinSharedTokens = 2
	ix, err := BuildIndex(right, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			left, _ := indexTestRelations(int64(100+g), 60, 1)
			got, err := ix.Similarities(left, idx, 2)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := similarities(left, right, idx, idx, opt, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("goroutine %d: %d vs %d matches", g, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("goroutine %d: match %d differs: %+v vs %+v", g, i, got[i], want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexErrors pins the argument validation of the prebuilt-index path.
func TestIndexErrors(t *testing.T) {
	_, right := indexTestRelations(3, 5, 5)
	if _, err := BuildIndex(right, nil, DefaultPairOptions()); err == nil {
		t.Fatal("BuildIndex with no attributes should fail")
	}
	ix, err := BuildIndex(right, []int{0, 1}, DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	left, _ := indexTestRelations(4, 5, 1)
	if _, err := ix.Similarities(left, []int{0}, 1); err == nil {
		t.Fatal("mismatched attribute list length should fail")
	}
}
