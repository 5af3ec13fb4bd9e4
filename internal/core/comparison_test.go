package core

import (
	"fmt"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// virtualSimilarities scores the two sides the way RawSimilarities did for
// every attribute match before single-attribute matches were scanned in
// place: both sides' comparison columns copied into virtual relations over
// one per-call dictionary.
func virtualSimilarities(t *testing.T, t1, t2 *Canonical, mattr schemamap.Matching, popt linkage.PairOptions, workers int) []linkage.Match {
	t.Helper()
	d := relation.NewDict()
	v1, err := virtualColumns(t1, mattr, true, d)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := virtualColumns(t2, mattr, false, d)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(mattr))
	for i := range idx {
		idx[i] = i
	}
	ix, err := linkage.BuildIndex(v2, idx, popt)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ix.Similarities(v1, idx, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// checkComparisonColumns builds both sides of in and checks that
// RawSimilarities and the PairIndex path return exactly the virtual-column
// path's matches at several worker counts, that they scan the canonical
// relations in place exactly when inPlace is set, and that RawSimilarities
// (and the PairIndex path, when in place) leaves the databases'
// dictionaries as they were.
func checkComparisonColumns(t *testing.T, label string, in Input, popt linkage.PairOptions, inPlace bool) {
	t.Helper()
	s1, err := BuildSide(in.Q1, in.DB1, in.Mattr.LeftAttrs(), "Q1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildSide(in.Q2, in.DB2, in.Mattr.RightAttrs(), "Q2")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Canon.Len() == 0 || s2.Canon.Len() == 0 {
		t.Fatalf("%s: empty canonical relation (%d, %d rows)", label, s1.Canon.Len(), s2.Canon.Len())
	}
	for side, c := range []*Canonical{s1.Canon, s2.Canon} {
		r, _, err := comparisonColumns(c, in.Mattr, side == 0, relation.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		if got := r == c.Rel; got != inPlace {
			t.Fatalf("%s: side %d scanned in place = %v, want %v", label, side+1, got, inPlace)
		}
	}
	d1, d2 := s1.Canon.Rel.Dict(), s2.Canon.Rel.Dict()
	n1, n2 := d1.Len(), d2.Len()
	unchanged := func(what string) {
		t.Helper()
		if d1.Len() != n1 || d2.Len() != n2 {
			t.Fatalf("%s: %s grew the dictionaries from %d/%d to %d/%d strings", label, what, n1, n2, d1.Len(), d2.Len())
		}
	}
	want := virtualSimilarities(t, s1.Canon, s2.Canon, in.Mattr, popt, 1)
	if len(want) == 0 {
		t.Fatalf("%s: no matches to compare", label)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := RawSimilarities(s1.Canon, s2.Canon, in.Mattr, popt, workers)
		if err != nil {
			t.Fatal(err)
		}
		matchListsEqual(t, fmt.Sprintf("%s RawSimilarities workers=%d", label, workers), got, want)
	}
	unchanged("RawSimilarities")
	for _, workers := range []int{1, 2, 4} {
		pp, err := BuildPairPrefix(s1, s2, in.Mattr, popt, workers)
		if err != nil {
			t.Fatal(err)
		}
		matchListsEqual(t, fmt.Sprintf("%s PairIndex workers=%d", label, workers), pp.Raw, want)
	}
	if inPlace {
		// Concatenations on the PairIndex path intern into the database
		// dictionary (VirtualColumns); in-place scans intern nothing.
		unchanged("the PairIndex path")
	}
}

func matchListsEqual(t *testing.T, label string, got, want []linkage.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestComparisonColumnsInPlaceIMDb matches a text title and a numeric
// release year, one attribute per side each.
func TestComparisonColumnsInPlaceIMDb(t *testing.T) {
	g, err := datagen.GenerateIMDb(datagen.IMDbSpec{Movies: 2000, ErrorRate: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tpl := datagen.Templates()[4] // total-gross: title and release_year
	q1, q2, mattr, err := tpl.Instantiate(fmt.Sprint(g.Spec.StartYear + 5))
	if err != nil {
		t.Fatal(err)
	}
	in := Input{DB1: g.DB1, DB2: g.DB2, Q1: q1, Q2: q2, Mattr: mattr}
	for _, mst := range []int{1, 2} {
		popt := linkage.PairOptions{MinSim: 0.05, MinSharedTokens: mst}
		checkComparisonColumns(t, fmt.Sprintf("imdb mst=%d", mst), in, popt, true)
	}
}

// TestComparisonColumnsInPlaceScenario runs the scenario generator's
// dense-vocabulary shape at the default and at oneshot-stage1's MinSim.
func TestComparisonColumnsInPlaceScenario(t *testing.T) {
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: 600, Vocab: 15, Disagree: 0.01, Noise: 0.05, Seed: 2,
	})
	in := Input{DB1: sc.DB1, DB2: sc.DB2, Q1: sc.Q1, Q2: sc.Q2, Mattr: sc.Mattr}
	for _, minSim := range []float64{0.05, 0.6} {
		popt := linkage.PairOptions{MinSim: minSim, MinSharedTokens: 1}
		checkComparisonColumns(t, fmt.Sprintf("scenario minSim=%v", minSim), in, popt, true)
	}
}

// mixedKindDB holds two tables whose code columns mix integers, strings and
// booleans, with NULL cells in both matched columns.
func mixedKindDB() *relation.Database {
	db := relation.NewDatabase("mixed")
	a := relation.New("A", "name", "code", "v")
	a.Append("Computer Science", int64(3), int64(1))
	a.Append("data science", "3 units", int64(2))
	a.Append(nil, true, int64(3))
	a.Append("Fine Arts", nil, int64(4))
	a.Append("arts and crafts", int64(7), int64(5))
	a.Append("Science of Logic", "logic 7", int64(6))
	db.Add(a)
	b := relation.New("B", "name", "code", "v")
	b.Append("computer science", "3", int64(1))
	b.Append("Data Science", "3 Units", int64(2))
	b.Append("fine arts", int64(4), int64(3))
	b.Append(nil, false, int64(4))
	b.Append("crafts", int64(7), int64(5))
	b.Append("logic", nil, int64(6))
	db.Add(b)
	return db
}

// TestComparisonColumnsInPlaceMixedKinds scans a mixed-kind column with
// NULL cells in place: non-string cells tokenize their rendering without
// interning it into the database dictionary.
func TestComparisonColumnsInPlaceMixedKinds(t *testing.T) {
	db := mixedKindDB()
	in := Input{
		DB1: db, DB2: db,
		Q1:    sqlparse.MustParse("SELECT SUM(v) FROM A"),
		Q2:    sqlparse.MustParse("SELECT SUM(v) FROM B"),
		Mattr: mustMatching(t, "A.name == B.name\nA.code == B.code"),
	}
	for _, mst := range []int{1, 2} {
		popt := linkage.PairOptions{MinSim: 0.05, MinSharedTokens: mst}
		checkComparisonColumns(t, fmt.Sprintf("mixed mst=%d", mst), in, popt, true)
	}
}

// TestComparisonColumnsConcatenated pins a multi-attribute match: it keeps
// the virtual relation of concatenated strings.
func TestComparisonColumnsConcatenated(t *testing.T) {
	db := mixedKindDB()
	in := Input{
		DB1: db, DB2: db,
		Q1:    sqlparse.MustParse("SELECT SUM(v) FROM A"),
		Q2:    sqlparse.MustParse("SELECT SUM(v) FROM B"),
		Mattr: mustMatching(t, "A.name,A.code == B.name"),
	}
	checkComparisonColumns(t, "concatenated", in, linkage.DefaultPairOptions(), false)
}
