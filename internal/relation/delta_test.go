package relation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// freshFromTuples rebuilds a relation from scratch holding exactly the given
// rows — the reference ApplyDelta is differentially tested against.
func freshFromTuples(src *Relation, tuples []Tuple) *Relation {
	out := NewFromSchema(src.Name, src.Schema, src.Dict())
	for _, t := range tuples {
		out.AppendRow(t)
	}
	return out
}

// applyDeltaToTuples is the row-level reference semantics of a Delta batch.
func applyDeltaToTuples(tuples []Tuple, d Delta) []Tuple {
	deleted := make(map[int]bool, len(d.Deletes))
	for _, i := range d.Deletes {
		deleted[i] = true
	}
	updated := make(map[int]Tuple, len(d.Updates))
	for _, u := range d.Updates {
		updated[u.Row] = u.Values
	}
	var out []Tuple
	for i, t := range tuples {
		if deleted[i] {
			continue
		}
		if nv, ok := updated[i]; ok {
			out = append(out, nv.Clone())
			continue
		}
		out = append(out, t)
	}
	for _, t := range d.Appends {
		out = append(out, t.Clone())
	}
	return out
}

func sameTuples(t *testing.T, got *Relation, want []Tuple) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("rows: got %d want %d", got.Len(), len(want))
	}
	for i, w := range want {
		g := got.Row(i)
		for j := range w {
			if g[j].Key() != w[j].Key() {
				t.Fatalf("row %d col %d: got %v want %v", i, j, g[j], w[j])
			}
		}
	}
}

func randValue(rng *rand.Rand, kind int) Value {
	switch kind {
	case 0:
		return Int(int64(rng.Intn(50)))
	case 1:
		return Float(rng.Float64() * 10)
	case 2:
		return String(fmt.Sprintf("w%02d x%02d", rng.Intn(20), rng.Intn(20)))
	case 3:
		return Bool(rng.Intn(2) == 0)
	default:
		return Null()
	}
}

func randRelation(rng *rand.Rand, rows int) (*Relation, []Tuple) {
	r := New("t", "a", "b", "c", "d")
	// Column kinds: int, float, string, and one that starts all-NULL so the
	// backfill copy-on-write path gets exercised by updates/appends.
	for i := 0; i < rows; i++ {
		t := Tuple{
			randValue(rng, 0),
			randValue(rng, 1),
			randValue(rng, 2),
			Null(),
		}
		if rng.Intn(8) == 0 {
			t[rng.Intn(3)] = Null()
		}
		r.AppendRow(t)
	}
	return r, r.Tuples()
}

func randDelta(rng *rand.Rand, rows int) Delta {
	var d Delta
	used := map[int]bool{}
	pick := func() int {
		for {
			i := rng.Intn(rows)
			if !used[i] {
				used[i] = true
				return i
			}
		}
	}
	if rows > 0 {
		for k := rng.Intn(3); k > 0 && len(used) < rows; k-- {
			d.Deletes = append(d.Deletes, pick())
		}
		for k := rng.Intn(3); k > 0 && len(used) < rows; k-- {
			row := pick()
			vals := Tuple{
				randValue(rng, 0),
				randValue(rng, 1),
				randValue(rng, 2),
				randValue(rng, rng.Intn(5)), // may backfill the NULL column
			}
			d.Updates = append(d.Updates, RowUpdate{Row: row, Values: vals})
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		d.Appends = append(d.Appends, Tuple{
			randValue(rng, 0),
			randValue(rng, 1),
			randValue(rng, 2),
			randValue(rng, rng.Intn(5)),
		})
	}
	return d
}

// TestApplyDeltaDifferential drives randomized delta streams and checks the
// COW result against a fresh rebuild from the post-delta tuples — at segment
// sizes that exercise single-row segments, misaligned partial segments, and
// the default directory.
func TestApplyDeltaDifferential(t *testing.T) {
	for _, segSize := range []int{1, 7, 4096} {
		t.Run(fmt.Sprintf("seg%d", segSize), func(t *testing.T) {
			old := SegmentSize()
			SetSegmentSize(segSize)
			defer SetSegmentSize(old)
			rng := rand.New(rand.NewSource(int64(segSize)))
			for trial := 0; trial < 20; trial++ {
				r, tuples := randRelation(rng, 5+rng.Intn(30))
				if r.Version() != 0 {
					t.Fatalf("fresh relation version = %d", r.Version())
				}
				for step := 0; step < 6; step++ {
					d := randDelta(rng, len(tuples))
					before := r.Tuples()
					nr, res, err := r.ApplyDelta(d)
					if err != nil {
						t.Fatalf("trial %d step %d: %v", trial, step, err)
					}
					tuples = applyDeltaToTuples(tuples, d)
					sameTuples(t, nr, tuples)
					sameTuples(t, freshFromTuples(r, tuples), tuples)
					// The source generation must be untouched (COW isolation).
					sameTuples(t, r, before)
					checkDeltaResult(t, res, len(before), len(tuples), d, nr)
					r = nr
				}
			}
		})
	}
}

func checkDeltaResult(t *testing.T, res *DeltaResult, oldRows, newRows int, d Delta, nr *Relation) {
	t.Helper()
	if res.OldRows != oldRows || res.NewRows != newRows {
		t.Fatalf("result rows: got (%d,%d) want (%d,%d)", res.OldRows, res.NewRows, oldRows, newRows)
	}
	if res.Version != nr.Version() {
		t.Fatalf("result version %d != relation version %d", res.Version, nr.Version())
	}
	if res.Appended != len(d.Appends) || res.Updated != len(d.Updates) || res.Deleted != len(d.Deletes) {
		t.Fatalf("result counts (%d,%d,%d) != batch (%d,%d,%d)",
			res.Appended, res.Updated, res.Deleted, len(d.Appends), len(d.Updates), len(d.Deletes))
	}
	// RowMap must be monotone over survivors and -1 exactly for deletes.
	deleted := map[int]bool{}
	for _, i := range d.Deletes {
		deleted[i] = true
	}
	prev := -1
	for i, ni := range res.RowMap {
		if deleted[i] {
			if ni != -1 {
				t.Fatalf("RowMap[%d] = %d for deleted row", i, ni)
			}
			continue
		}
		if ni <= prev {
			t.Fatalf("RowMap not monotone at %d: %d after %d", i, ni, prev)
		}
		prev = ni
	}
	// Dirty = updated rows' new positions + appended rows, ascending.
	wantDirty := map[int]bool{}
	for _, u := range d.Updates {
		wantDirty[res.RowMap[u.Row]] = true
	}
	for i := newRows - len(d.Appends); i < newRows; i++ {
		wantDirty[i] = true
	}
	if len(res.Dirty) != len(wantDirty) {
		t.Fatalf("Dirty len %d want %d", len(res.Dirty), len(wantDirty))
	}
	for k, i := range res.Dirty {
		if !wantDirty[i] {
			t.Fatalf("Dirty[%d] = %d unexpected", k, i)
		}
		if k > 0 && res.Dirty[k-1] >= i {
			t.Fatalf("Dirty not ascending at %d", k)
		}
	}
}

func TestApplyDeltaValidation(t *testing.T) {
	r := New("t", "a").Append(1).Append(2).Append(3)
	cases := []Delta{
		{Deletes: []int{3}},
		{Deletes: []int{-1}},
		{Deletes: []int{1, 1}},
		{Updates: []RowUpdate{{Row: 5, Values: Tuple{Int(1)}}}},
		{Updates: []RowUpdate{{Row: 0, Values: Tuple{Int(1), Int(2)}}}},
		{Updates: []RowUpdate{{Row: 0, Values: Tuple{Int(1)}}, {Row: 0, Values: Tuple{Int(2)}}}},
		{Deletes: []int{1}, Updates: []RowUpdate{{Row: 1, Values: Tuple{Int(1)}}}},
		{Appends: []Tuple{{Int(1), Int(2)}}},
	}
	for i, d := range cases {
		if _, _, err := r.ApplyDelta(d); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("failed deltas mutated the relation: %d rows", r.Len())
	}
}

func TestDatabaseApplyDelta(t *testing.T) {
	db := NewDatabase("db")
	a := New("A", "x").Append(1).Append(2)
	b := New("B", "y").Append("p")
	db.Add(a).Add(b)
	nd, results, err := db.ApplyDelta(DBDelta{"a": {Appends: []Tuple{{Int(3)}}}})
	if err != nil {
		t.Fatal(err)
	}
	na, _ := nd.Relation("A")
	if na.Len() != 3 || na.Version() != 1 {
		t.Fatalf("A: len %d version %d", na.Len(), na.Version())
	}
	// Untouched relation is shared by pointer; the source database is intact.
	nb, _ := nd.Relation("B")
	if nb != b {
		t.Fatal("untouched relation not shared")
	}
	oa, _ := db.Relation("A")
	if oa.Len() != 2 {
		t.Fatal("source database mutated")
	}
	if results["a"].Appended != 1 {
		t.Fatalf("result: %+v", results["a"])
	}
	if _, _, err := db.ApplyDelta(DBDelta{"missing": {}}); err == nil {
		t.Fatal("expected error for unknown relation")
	}
	// Two spellings of one relation would each apply to the pre-delta
	// relation, the later overwriting the earlier: reject, naming both.
	_, _, err = db.ApplyDelta(DBDelta{
		"A": {Appends: []Tuple{{Int(3)}}},
		"a": {Appends: []Tuple{{Int(4)}}},
	})
	if err == nil || !strings.Contains(err.Error(), `"A"`) || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("case-folded duplicate names: err = %v, want an error naming both spellings", err)
	}
}
