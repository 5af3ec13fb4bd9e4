package query

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// mapGroups is the retired map-backed key table (the pre-flat structure of
// rowDeduper and groupProject's buckets), kept as the differential
// reference for relation.GroupTable.
type mapGroups struct {
	buckets map[uint64][]int32 // hash → ids of its chain, in creation order
	reps    []int32
}

func newMapGroups(rows int) *mapGroups {
	return &mapGroups{buckets: make(map[uint64][]int32, min(rows, 256))}
}

func (g *mapGroups) At(keys [][]relation.CellKey, i int) (int32, bool) {
	h := relation.HashRow(keys, i)
	for _, id := range g.buckets[h] {
		if relation.RowKeysEqual(keys, i, keys, int(g.reps[id])) {
			return id, false
		}
	}
	id := int32(len(g.reps))
	g.reps = append(g.reps, int32(i))
	g.buckets[h] = append(g.buckets[h], id)
	return id, true
}

// runWithMapGrouping evaluates sql with the retired map-backed key table.
func runWithMapGrouping(sel *sqlparse.Select, db *relation.Database) (*relation.Relation, error) {
	flat := newGrouper
	newGrouper = func(rows int) grouper { return newMapGroups(rows) }
	defer func() { newGrouper = flat }()
	return Run(sel, db)
}

// TestFlatGroupingMatchesMapGrouping is the flat≡map differential: every
// DISTINCT and GROUP BY workload — fixture corpus plus random relations
// with NULL and mixed-kind keys — must return byte-identical relations
// whether the key table is the flat open-addressing structure or the
// retired map[uint64][]int32.
func TestFlatGroupingMatchesMapGrouping(t *testing.T) {
	check := func(label, sql string, db *relation.Database) {
		t.Helper()
		sel := sqlparse.MustParse(sql)
		flat, errFlat := Run(sel, db)
		mp, errMap := runWithMapGrouping(sel, db)
		if (errFlat != nil) != (errMap != nil) {
			t.Fatalf("%s: %q: flat err = %v, map err = %v", label, sql, errFlat, errMap)
		}
		if errFlat == nil {
			relationsIdentical(t, label+": "+sql, flat, mp)
		}
	}

	db := corpusDB()
	for _, sql := range []string{
		"SELECT DISTINCT Program FROM D1",
		"SELECT DISTINCT Degree, Program FROM D1",
		"SELECT DISTINCT score FROM T",
		"SELECT DISTINCT name, score FROM T",
		"SELECT Program, COUNT(Degree) AS I FROM D1 GROUP BY Program",
		"SELECT score, COUNT(*) FROM T GROUP BY score",
		"SELECT name, COUNT(score), SUM(score), MIN(score) FROM T GROUP BY name",
	} {
		check("corpus", sql, db)
	}

	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		rdb := randomDB(rng)
		for _, sql := range []string{
			"SELECT DISTINCT a FROM T1",
			"SELECT DISTINCT a, b, c FROM T1",
			"SELECT DISTINCT b + 1, a FROM T1",
			"SELECT a, COUNT(b) AS n, SUM(b) AS s, AVG(b) AS m FROM T1 GROUP BY a",
			"SELECT b, c, MIN(a), MAX(a), COUNT(*) FROM T1 GROUP BY b, c",
			"SELECT c, COUNT(a) FROM T1 GROUP BY c",
		} {
			check(fmt.Sprintf("trial %d", trial), sql, rdb)
		}
	}
}

// TestFlatGroupsGrowth drives the flat table far past its initial capacity
// (the size hint caps at 256 slots' worth of groups) with colliding
// duplicates interleaved, checking id assignment in first-appearance order
// and exact duplicate detection across rehashes.
func TestFlatGroupsGrowth(t *testing.T) {
	const distinct = 5000
	r := relation.New("R", "k")
	var want []int32
	for i := 0; i < distinct; i++ {
		r.Append(int64(i))
		r.Append(int64(i)) // immediate duplicate
		if i%3 == 0 {
			r.Append(int64(i / 2)) // duplicate of an earlier id
		}
	}
	keys := keyColumns(r, []int{0}, r.Dict())
	g := relation.NewGroupTable(r.Len())
	next := int32(0)
	for i := 0; i < r.Len(); i++ {
		id, fresh := g.At(keys, i)
		v := r.At(i, 0).IntVal()
		if fresh {
			if id != next {
				t.Fatalf("row %d: fresh id %d, want %d (dense first-appearance order)", i, id, next)
			}
			want = append(want, int32(v))
			next++
		}
		if int64(want[id]) != v {
			t.Fatalf("row %d: key %d mapped to id %d, which represents %d", i, v, id, want[id])
		}
	}
	if int(next) != distinct {
		t.Fatalf("distinct ids = %d, want %d", next, distinct)
	}
}

// TestDistinctBuildSideAllocs pins the flat table's allocation profile on
// an all-distinct DISTINCT (the worst case for per-key boxing): a bounded
// handful of allocations from growth doubling, where the map table boxed
// one chain slice per distinct key.
func TestDistinctBuildSideAllocs(t *testing.T) {
	const rows = 2048
	r := relation.New("R", "k")
	for i := 0; i < rows; i++ {
		r.Append(int64(i))
	}
	keys := keyColumns(r, []int{0}, r.Dict())
	flat := testing.AllocsPerRun(10, func() {
		g := relation.NewGroupTable(rows)
		for i := 0; i < rows; i++ {
			g.At(keys, i)
		}
	})
	mapped := testing.AllocsPerRun(10, func() {
		g := newMapGroups(rows)
		for i := 0; i < rows; i++ {
			g.At(keys, i)
		}
	})
	t.Logf("distinct build allocations over %d distinct keys: flat %.0f, map %.0f", rows, flat, mapped)
	if flat > 64 {
		t.Fatalf("flat group table allocations = %.0f for %d distinct keys; want a small growth-bounded constant", flat, rows)
	}
	if flat*4 > mapped {
		t.Fatalf("flat table allocates %.0f, map table %.0f — want at least 4x fewer", flat, mapped)
	}
}

// TestSpliceProjectionAllocs pins the mixed SELECT-list fast path: with two
// of three items plain column refs, only the computed item's column should
// be built — the compiled engine must allocate well under the
// tuple-materializing reference.
func TestSpliceProjectionAllocs(t *testing.T) {
	db := allocsDB(600)
	// Both engines append the computed column through amortized column
	// growth, so the plain projection only demands strictly fewer
	// allocations; DISTINCT over computed items is where the flat-table
	// dedup (vs the reference's per-row keying) dominates.
	minRatio := map[string]float64{
		"SELECT id, city, v + 1 AS w FROM A":      1,
		"SELECT DISTINCT city, v + 1 AS w FROM A": 2,
	}
	for _, sql := range []string{
		"SELECT id, city, v + 1 AS w FROM A",
		"SELECT DISTINCT city, v + 1 AS w FROM A",
	} {
		sel := sqlparse.MustParse(sql)
		if _, err := Run(sel, db); err != nil {
			t.Fatal(err)
		}
		if _, err := RunReference(sel, db); err != nil {
			t.Fatal(err)
		}
		compiled := testing.AllocsPerRun(5, func() {
			if _, err := Run(sel, db); err != nil {
				t.Fatal(err)
			}
		})
		reference := testing.AllocsPerRun(5, func() {
			if _, err := RunReference(sel, db); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: compiled %.0f, reference %.0f (%.1fx)", sql, compiled, reference, reference/compiled)
		if compiled*minRatio[sql] >= reference {
			t.Fatalf("%s: compiled allocates %.0f, reference %.0f — want over %.0fx fewer", sql, compiled, reference, minRatio[sql])
		}
	}
}

// TestGroupedTypedAccumulatorAllocs pins the column-major typed group
// accumulators: grouped COUNT/SUM/AVG over typed columns must not box a
// Value per row, so allocations stay a function of group count, not row
// count. Doubling the rows (same groups) must not meaningfully move the
// allocation count.
func TestGroupedTypedAccumulatorAllocs(t *testing.T) {
	sql := "SELECT city, COUNT(id) AS n, SUM(v) AS s, AVG(v) AS m FROM A GROUP BY city"
	measure := func(rows int) float64 {
		db := allocsDB(rows)
		sel := sqlparse.MustParse(sql)
		if _, err := Run(sel, db); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(sel, db); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(1000), measure(2000)
	t.Logf("grouped typed accumulators: %.0f allocs at 1000 rows, %.0f at 2000", small, large)
	// The key-column extraction allocates O(rows) *slices* but a constant
	// number of allocations; the per-row aggregation path must allocate
	// nothing, so the totals stay within a small additive band.
	if large > small+16 {
		t.Fatalf("grouped aggregation allocations scale with rows: %.0f at 1000 rows, %.0f at 2000", small, large)
	}
}
