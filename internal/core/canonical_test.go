package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// randomKeyCell draws one matching-attribute cell for a column of the
// given style from a pool of vocab values, so rows collide into groups.
func randomKeyCell(rng *rand.Rand, style string, vocab, row int) relation.Value {
	k := rng.Intn(vocab)
	switch style {
	case "int":
		return relation.Int(int64(k))
	case "float":
		return relation.Float(float64(k) + 0.5*float64(k%2))
	case "string":
		return relation.String(fmt.Sprintf("w%d", k))
	case "bool":
		return relation.Bool(k%2 == 0)
	case "fold":
		// Int(k) and Float(k) share a CellKey: the column is boxed, and a
		// group's representative is whichever kind came first.
		if rng.Intn(2) == 0 {
			return relation.Int(int64(k))
		}
		return relation.Float(float64(k))
	case "intsfirst":
		// Boxed by later Float duplicates of keys whose first appearance
		// is an Int: every group representative is an Int.
		if row < vocab {
			return relation.Int(int64(row))
		}
		return relation.Float(float64(k))
	case "mixed":
		switch rng.Intn(3) {
		case 0:
			return relation.Int(int64(k))
		case 1:
			return relation.String(fmt.Sprintf("w%d", k))
		}
		return relation.Bool(k%2 == 0)
	case "nullprefix":
		if row < 5 {
			return relation.Null()
		}
		return relation.String(fmt.Sprintf("w%d", k))
	case "null":
		return relation.Null()
	}
	panic("unknown style " + style)
}

// randomImpact draws a finite impact, including -0 and non-integral floats.
func randomImpact(rng *rand.Rand) relation.Value {
	switch rng.Intn(5) {
	case 0:
		return relation.Float(math.Copysign(0, -1))
	case 1:
		return relation.Float(float64(rng.Intn(100)) / 8)
	default:
		return relation.Int(int64(rng.Intn(20) - 5))
	}
}

// randomProvenance builds a provenance relation with 1–3 matching columns
// of random styles (some qualified by another relation name), an impact
// column, an unmatched filler column and a random aggregate, and returns
// the attribute references Canonicalize should group on.
func randomProvenance(rng *rand.Rand) (*query.Provenance, []string) {
	styles := []string{"int", "float", "string", "bool", "fold", "intsfirst", "mixed", "nullprefix", "null"}
	aggs := []sqlparse.AggFunc{sqlparse.AggSum, sqlparse.AggCount, sqlparse.AggNone, sqlparse.AggAvg, sqlparse.AggMax, sqlparse.AggMin}
	nattr := 1 + rng.Intn(3)
	cols := []string{"filler"}
	var attrs, colStyles []string
	for c := 0; c < nattr; c++ {
		name := fmt.Sprintf("k%d", c)
		ref := name
		switch rng.Intn(3) {
		case 0:
			name = "a." + name
			ref = name
		case 1:
			ref = "P." + name
		}
		cols = append(cols, name)
		attrs = append(attrs, ref)
		colStyles = append(colStyles, styles[rng.Intn(len(styles))])
	}
	cols = append(cols, query.ImpactColumn)
	rows := rng.Intn(60)
	if rng.Intn(10) == 0 {
		rows = 4096 + rng.Intn(4096) // spans two column segments
	}
	vocab := []int{1, 3, 40}[rng.Intn(3)]
	r := relation.New("P", cols...)
	rec := make(relation.Tuple, len(cols))
	for i := 0; i < rows; i++ {
		rec[0] = relation.Int(int64(i))
		for c, style := range colStyles {
			rec[1+c] = randomKeyCell(rng, style, vocab, i)
			if rng.Intn(8) == 0 {
				rec[1+c] = relation.Null()
			}
		}
		rec[len(rec)-1] = randomImpact(rng)
		r.AppendRow(rec)
	}
	return &query.Provenance{Agg: aggs[rng.Intn(len(aggs))], Rel: r}, attrs
}

// storage names how column j is physically stored, through the typed views
// the Stage-1 scan dispatches on.
func storage(r *relation.Relation, j int) string {
	if _, _, ok := r.IntSegments(j); ok {
		return "int"
	}
	if _, _, ok := r.FloatSegments(j); ok {
		return "float"
	}
	if segs, _, ok := r.StringSegments(j); ok {
		return fmt.Sprint("string", segs)
	}
	return fmt.Sprint("other numeric=", r.NumericOnly(j))
}

// canonicalsIdentical compares two canonical relations field by field:
// the relation's name, schema, dictionary, physical storage and every cell
// (kind, key and rendering), the impact bits, the display keys, the source
// rows and the matching-column indexes.
func canonicalsIdentical(t *testing.T, label string, got, want *Canonical) {
	t.Helper()
	g, w := got.Rel, want.Rel
	if g.Name != w.Name || fmt.Sprint(g.Schema.Names()) != fmt.Sprint(w.Schema.Names()) || g.Dict() != w.Dict() {
		t.Fatalf("%s: relation %s%v, want %s%v (same dictionary: %v)", label, g.Name, g.Schema.Names(), w.Name, w.Schema.Names(), g.Dict() == w.Dict())
	}
	if g.Len() != w.Len() || got.Len() != want.Len() {
		t.Fatalf("%s: %d rows (%d impacts), want %d (%d)", label, g.Len(), got.Len(), w.Len(), want.Len())
	}
	for j := 0; j < w.Schema.Len(); j++ {
		if gs, ws := storage(g, j), storage(w, j); gs != ws || g.SegmentLen(j) != w.SegmentLen(j) {
			t.Fatalf("%s: column %d stored as %s (segment %d), want %s (segment %d)", label, j, gs, g.SegmentLen(j), ws, w.SegmentLen(j))
		}
		for i := 0; i < w.Len(); i++ {
			gv, wv := g.At(i, j), w.At(i, j)
			gf, _ := gv.AsFloat()
			wf, _ := wv.AsFloat()
			if gv.Kind() != wv.Kind() || gv.Key() != wv.Key() || gv.String() != wv.String() || math.Float64bits(gf) != math.Float64bits(wf) {
				t.Fatalf("%s: cell (%d,%d) = %v (%v), want %v (%v)", label, i, j, gv, gv.Kind(), wv, wv.Kind())
			}
		}
	}
	for i := range want.Impacts {
		if math.Float64bits(got.Impacts[i]) != math.Float64bits(want.Impacts[i]) {
			t.Fatalf("%s: impact %d = %v, want %v", label, i, got.Impacts[i], want.Impacts[i])
		}
		if got.Keys[i] != want.Keys[i] {
			t.Fatalf("%s: key %d = %q, want %q", label, i, got.Keys[i], want.Keys[i])
		}
		if fmt.Sprint(got.SourceRows[i]) != fmt.Sprint(want.SourceRows[i]) {
			t.Fatalf("%s: source rows %d = %v, want %v", label, i, got.SourceRows[i], want.SourceRows[i])
		}
	}
	if len(got.Keys) != len(want.Keys) || len(got.SourceRows) != len(want.SourceRows) || fmt.Sprint(got.MatchIdx) != fmt.Sprint(want.MatchIdx) {
		t.Fatalf("%s: %d keys, %d source rows, match columns %v; want %d, %d, %v", label,
			len(got.Keys), len(got.SourceRows), got.MatchIdx, len(want.Keys), len(want.SourceRows), want.MatchIdx)
	}
}

// TestCanonicalizeMatchesReference checks Canonicalize against the
// row-by-row canonicalizer it replaced (refCanonicalize) on random
// provenance: Int/Float keys that fold under CellKey, boxed mixed-kind
// columns (including ones whose group representatives share one kind),
// NULL prefixes, all-NULL columns, strict aggregates, qualified attribute
// names, single-group inputs and inputs spanning two column segments.
func TestCanonicalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 400; trial++ {
		p, attrs := randomProvenance(rng)
		label := fmt.Sprintf("trial %d (%d rows, agg %v, attrs %v)", trial, p.Rel.Len(), p.Agg, attrs)
		want, errWant := refCanonicalize(p, attrs)
		got, errGot := Canonicalize(p, attrs)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("%s: err = %v, want %v", label, errGot, errWant)
		}
		if errWant == nil {
			canonicalsIdentical(t, label, got, want)
		}
	}
}

// TestCanonicalizeMatchesReferenceOnQueries runs both canonicalizers on
// provenance the query engine extracts: IMDb Q1–Q10 and the scenario
// generator's two sides.
func TestCanonicalizeMatchesReferenceOnQueries(t *testing.T) {
	g, err := datagen.GenerateIMDb(datagen.IMDbSpec{Movies: 400, ErrorRate: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, q *sqlparse.Select, db *relation.Database, attrs []string) {
		t.Helper()
		p, err := query.Extract(q, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refCanonicalize(p, attrs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Canonicalize(p, attrs)
		if err != nil {
			t.Fatal(err)
		}
		canonicalsIdentical(t, label, got, want)
	}
	for _, tpl := range datagen.Templates() {
		param := fmt.Sprint(g.Spec.StartYear + 5)
		if tpl.Param == "genre" {
			param = datagen.Genres[0]
		}
		q1, q2, mattr, err := tpl.Instantiate(param)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Q%d left", tpl.ID), q1, g.DB1, mattr.LeftAttrs())
		check(fmt.Sprintf("Q%d right", tpl.ID), q2, g.DB2, mattr.RightAttrs())
	}
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{Rows: 2000, Vocab: 40, Disagree: 0.01, Noise: 0.05, Seed: 2})
	check("scenario left", sc.Q1, sc.DB1, sc.Mattr.LeftAttrs())
	check("scenario right", sc.Q2, sc.DB2, sc.Mattr.RightAttrs())
}

// BenchmarkCanonicalize times Canonicalize on oneshot-stage1's Q1
// provenance (a 20000-row scenario at seed 1, one group per row).
func BenchmarkCanonicalize(b *testing.B) {
	const rows = 20000
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: rows, Vocab: rows / 50, Disagree: 0.002, Noise: 0.02, Seed: 1,
	})
	p, err := query.Extract(sc.Q1, sc.DB1)
	if err != nil {
		b.Fatal(err)
	}
	attrs := sc.Mattr.LeftAttrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Canonicalize(p, attrs); err != nil {
			b.Fatal(err)
		}
	}
}
