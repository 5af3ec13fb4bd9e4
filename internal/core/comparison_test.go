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

// virtualSimilarities scores the two sides the way the one-shot path did
// for every attribute match before single-attribute matches were scanned
// in place: both sides' comparison columns copied into virtual relations.
func virtualSimilarities(t *testing.T, t1, t2 *Canonical, mattr schemamap.Matching, popt linkage.PairOptions, workers int) []linkage.Match {
	t.Helper()
	v1, err := VirtualColumns(t1, mattr, true)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := VirtualColumns(t2, mattr, false)
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

// checkComparisonColumns builds both sides of in and checks that the
// one-shot path (BuildStage1) and BuildPairPrefix return exactly the
// virtual-column path's matches at several worker counts, that they scan
// the canonical relations in place exactly when inPlace is set, and that
// neither grows the databases' dictionaries.
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
		r, _, err := comparisonColumns(c, in.Mattr, side == 0)
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
		in.PairOpts, in.Workers = &popt, workers
		st, err := BuildStage1(in)
		if err != nil {
			t.Fatal(err)
		}
		matchListsEqual(t, fmt.Sprintf("%s BuildStage1 workers=%d", label, workers), st.RawMatches, want)
		pp, err := BuildPairPrefix(s1, s2, in.Mattr, popt, workers)
		if err != nil {
			t.Fatal(err)
		}
		matchListsEqual(t, fmt.Sprintf("%s BuildPairPrefix workers=%d", label, workers), pp.Raw, want)
	}
	unchanged("Stage 1")
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

// dictSizes returns the string count of every relation's dictionary in db,
// in registration order.
func dictSizes(db *relation.Database) []int {
	var out []int
	for _, r := range db.Relations() {
		out = append(out, r.Dict().Len())
	}
	return out
}

// TestStage1LeavesDictionariesIMDbQ1 runs IMDb Q1, whose first attribute
// match concatenates firstname and lastname, through BuildPairPrefix and a
// rescanning Advance: neither may grow a database dictionary, and each raw
// list must equal the virtual-column scan of the same sides.
func TestStage1LeavesDictionariesIMDbQ1(t *testing.T) {
	g, err := datagen.GenerateIMDb(datagen.IMDbSpec{Movies: 600, ErrorRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl := datagen.Templates()[0]
	q1, q2, mattr, err := tpl.Instantiate(fmt.Sprint(g.Spec.StartYear + 5))
	if err != nil {
		t.Fatal(err)
	}
	popt := linkage.DefaultPairOptions()
	build := func(db *relation.Database, q *sqlparse.Select, attrs []string) *BuiltSide {
		s, err := BuildSide(q, db, attrs, "Q")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	unchanged := func(what string, db1, db2 *relation.Database, want1, want2 []int) {
		t.Helper()
		if got1, got2 := dictSizes(db1), dictSizes(db2); fmt.Sprint(got1, got2) != fmt.Sprint(want1, want2) {
			t.Fatalf("%s grew the dictionaries: db1 %v → %v, db2 %v → %v", what, want1, got1, want2, got2)
		}
	}
	s1, s2 := build(g.DB1, q1, mattr.LeftAttrs()), build(g.DB2, q2, mattr.RightAttrs())
	if r, _, err := comparisonColumns(s1.Canon, mattr, true); err != nil || r == s1.Canon.Rel {
		t.Fatalf("side 1 scanned in place (err %v); Q1 should concatenate", err)
	}
	n1, n2 := dictSizes(g.DB1), dictSizes(g.DB2)
	pp, err := BuildPairPrefix(s1, s2, mattr, popt, 2)
	if err != nil {
		t.Fatal(err)
	}
	unchanged("BuildPairPrefix", g.DB1, g.DB2, n1, n2)
	want := virtualSimilarities(t, s1.Canon, s2.Canon, mattr, popt, 1)
	if len(want) == 0 {
		t.Fatal("no matches to compare")
	}
	matchListsEqual(t, "BuildPairPrefix", pp.Raw, want)

	// Rename every actor: side 1's concatenated cells change, so Advance
	// rescans side 1 in full.
	actors, err := g.DB1.Relation("Actor")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := actors.Schema.Index("firstname")
	if err != nil {
		t.Fatal(err)
	}
	var d relation.Delta
	for i := 0; i < actors.Len(); i++ {
		row := actors.Row(i)
		row[fn] = relation.String(row[fn].String() + "x")
		d.Updates = append(d.Updates, relation.RowUpdate{Row: i, Values: row})
	}
	db1, _, err := g.DB1.ApplyDelta(relation.DBDelta{"Actor": d})
	if err != nil {
		t.Fatal(err)
	}
	s1 = build(db1, q1, mattr.LeftAttrs())
	n1 = dictSizes(db1)
	next, diff, err := pp.Advance(s1, s2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.FullRescan {
		t.Fatalf("Advance = %+v, want a full rescan", diff)
	}
	unchanged("Advance", db1, g.DB2, n1, n2)
	matchListsEqual(t, "Advance", next.Raw, virtualSimilarities(t, s1.Canon, s2.Canon, mattr, popt, 1))
}
