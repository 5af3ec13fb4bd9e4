package linkage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"explain3d/internal/relation"
)

func deltaWords(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("w%02d", rng.Intn(25))
	}
	return s
}

func deltaTuple(rng *rand.Rand) relation.Tuple {
	t := relation.Tuple{
		relation.String(deltaWords(rng)),
		relation.Float(float64(rng.Intn(40))),
		relation.String(deltaWords(rng)),
	}
	if rng.Intn(10) == 0 {
		t[rng.Intn(3)] = relation.Null()
	}
	return t
}

func buildRight(d *relation.Dict, tuples []relation.Tuple) *relation.Relation {
	r := relation.NewWithDict(d, "R", "x", "v", "y")
	for _, t := range tuples {
		r.AppendRow(t)
	}
	return r
}

// scrambleDelta builds a new tuple list plus the matching RowDelta:
// survivors may be arbitrarily permuted (exercising the non-monotone RowMap
// path canonical-row diffing produces), some rows change content, some are
// dropped, some appended.
func scrambleDelta(rng *rand.Rand, tuples []relation.Tuple) ([]relation.Tuple, RowDelta) {
	n := len(tuples)
	type moved struct {
		oldRow int // -1: fresh or changed content
		t      relation.Tuple
	}
	var rows []moved
	rowMap := make([]int, n)
	for i := range rowMap {
		rowMap[i] = -1
	}
	for i, t := range tuples {
		switch rng.Intn(10) {
		case 0: // delete
		case 1, 2: // change content
			rows = append(rows, moved{oldRow: -1, t: deltaTuple(rng)})
		default: // survive
			rows = append(rows, moved{oldRow: i, t: t})
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		rows = append(rows, moved{oldRow: -1, t: deltaTuple(rng)})
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	}
	var rd RowDelta
	rd.NewRows = len(rows)
	out := make([]relation.Tuple, len(rows))
	for ni, m := range rows {
		out[ni] = m.t
		if m.oldRow >= 0 {
			rowMap[m.oldRow] = ni
		} else {
			rd.Dirty = append(rd.Dirty, ni)
		}
	}
	rd.RowMap = rowMap
	return out, rd
}

// TestIndexApplyDeltaDifferential: a scan against the incrementally advanced
// index must be byte-identical to one against a fresh BuildIndex of the new
// relation — across randomized permuting/changing/deleting/appending deltas
// and stop-word-prune settings.
func TestIndexApplyDeltaDifferential(t *testing.T) {
	idx := []int{0, 1, 2}
	for _, mst := range []int{1, 3} {
		t.Run(fmt.Sprintf("mst%d", mst), func(t *testing.T) {
			opt := DefaultPairOptions()
			opt.MinSharedTokens = mst
			rng := rand.New(rand.NewSource(int64(mst)))
			for trial := 0; trial < 8; trial++ {
				d := relation.NewDict()
				tuples := make([]relation.Tuple, 10+rng.Intn(40))
				for i := range tuples {
					tuples[i] = deltaTuple(rng)
				}
				right := buildRight(d, tuples)
				ix, err := BuildIndex(right, idx, opt)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 4; step++ {
					var rd RowDelta
					tuples, rd = scrambleDelta(rng, tuples)
					newRight := buildRight(d, tuples)
					nix, _, err := ix.ApplyDelta(newRight, rd)
					if err != nil {
						t.Fatalf("trial %d step %d: %v", trial, step, err)
					}
					fresh, err := BuildIndex(newRight, idx, opt)
					if err != nil {
						t.Fatal(err)
					}
					left := buildRight(d, makeLeftTuples(rng))
					for _, workers := range []int{1, 3} {
						got, err := nix.Similarities(left, idx, workers)
						if err != nil {
							t.Fatal(err)
						}
						want, err := fresh.Similarities(left, idx, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d step %d workers %d: %d vs %d matches, diverged",
								trial, step, workers, len(got), len(want))
						}
					}
					ix = nix
				}
			}
		})
	}
}

func makeLeftTuples(rng *rand.Rand) []relation.Tuple {
	out := make([]relation.Tuple, 8+rng.Intn(20))
	for i := range out {
		out[i] = deltaTuple(rng)
	}
	return out
}

// TestIndexApplyDeltaAppendShares: a pure append must alias untouched
// posting lists instead of rewriting them.
func TestIndexApplyDeltaAppendShares(t *testing.T) {
	d := relation.NewDict()
	var tuples []relation.Tuple
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		tuples = append(tuples, deltaTuple(rng))
	}
	right := buildRight(d, tuples)
	ix, err := BuildIndex(right, []int{0, 1, 2}, DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	rd := RowDelta{RowMap: make([]int, 50), NewRows: 52, Dirty: []int{50, 51}}
	for i := range rd.RowMap {
		rd.RowMap[i] = i
	}
	tuples = append(tuples, deltaTuple(rng), deltaTuple(rng))
	nix, st, err := ix.ApplyDelta(buildRight(d, tuples), rd)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt || st.ListsShared == 0 {
		t.Fatalf("append delta should share lists: %+v", st)
	}
	if nix.nRight != 52 {
		t.Fatalf("nRight = %d", nix.nRight)
	}
}

// TestIndexApplyDeltaRebuildOnSniffFlip: a delta that flips a column's
// tokenized status (numeric-only column gains a string cell) must fall back
// to a full rebuild and still match a fresh build.
func TestIndexApplyDeltaRebuildOnSniffFlip(t *testing.T) {
	d := relation.NewDict()
	rng := rand.New(rand.NewSource(5))
	var tuples []relation.Tuple
	for i := 0; i < 20; i++ {
		tuples = append(tuples, deltaTuple(rng))
	}
	right := buildRight(d, tuples)
	ix, err := BuildIndex(right, []int{0, 1, 2}, DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Column 1 was numeric-only; the appended row makes it tokenized.
	flip := relation.Tuple{relation.String("w01 w02"), relation.String("not a number"), relation.String("w03")}
	tuples = append(tuples, flip)
	rd := RowDelta{RowMap: make([]int, 20), NewRows: 21, Dirty: []int{20}}
	for i := range rd.RowMap {
		rd.RowMap[i] = i
	}
	newRight := buildRight(d, tuples)
	nix, st, err := ix.ApplyDelta(newRight, rd)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Rebuilt {
		t.Fatal("expected full rebuild on tokenized-status flip")
	}
	fresh, _ := BuildIndex(newRight, []int{0, 1, 2}, DefaultPairOptions())
	left := buildRight(d, makeLeftTuples(rng))
	got, _ := nix.Similarities(left, []int{0, 1, 2}, 1)
	want, _ := fresh.Similarities(left, []int{0, 1, 2}, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt index diverges from fresh build")
	}
}

// TestRowDeltaValidation exercises the RowDelta invariant checks.
func TestRowDeltaValidation(t *testing.T) {
	d := relation.NewDict()
	rng := rand.New(rand.NewSource(9))
	var tuples []relation.Tuple
	for i := 0; i < 5; i++ {
		tuples = append(tuples, deltaTuple(rng))
	}
	right := buildRight(d, tuples)
	ix, err := BuildIndex(right, []int{0, 1, 2}, DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := []RowDelta{
		{RowMap: []int{0, 1, 2}, NewRows: 5},                            // wrong map length
		{RowMap: []int{0, 1, 2, 3, 9}, NewRows: 5},                      // target out of range
		{RowMap: []int{0, 0, 1, 2, 3}, NewRows: 5, Dirty: []int{4}},     // collision
		{RowMap: []int{0, 1, 2, 3, -1}, NewRows: 5},                     // uncovered row
		{RowMap: []int{0, 1, 2, 3, 4}, NewRows: 5, Dirty: []int{4}},     // dirty collides
		{RowMap: []int{0, 1, 2, 3, -1}, NewRows: 5, Dirty: []int{-1}},   // dirty out of range
		{RowMap: []int{0, 1, 2, 3, -1}, NewRows: 4, Dirty: []int{4}},    // relation mismatch
		{RowMap: []int{0, 1, 2, 3, -1}, NewRows: 6, Dirty: []int{4, 5}}, // relation mismatch
	}
	for i, rd := range bad {
		if _, _, err := ix.ApplyDelta(right, rd); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
