package core

import (
	"math"
	"testing"

	"explain3d/internal/linkage"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// fig1DB builds the datasets of Figure 1.
func fig1DB() *relation.Database {
	db := relation.NewDatabase("fig1")
	d1 := relation.New("D1", "Program", "Degree")
	d1.Append("Accounting", "B.S.")
	d1.Append("CS", "B.A.")
	d1.Append("CS", "B.S.")
	d1.Append("ECE", "B.S.")
	d1.Append("EE", "B.S.")
	d1.Append("Management", "B.A.")
	d1.Append("Design", "B.A.")
	db.Add(d1)
	d2 := relation.New("D2", "Univ", "Major")
	d2.Append("A", "Accounting")
	d2.Append("A", "CSE")
	d2.Append("A", "ECE")
	d2.Append("A", "EE")
	d2.Append("A", "Management")
	d2.Append("A", "Design")
	d2.Append("B", "Art")
	db.Add(d2)
	d3 := relation.New("D3", "College", "Num_bach")
	d3.Append("Business", int64(2))
	d3.Append("Engineering", int64(2))
	d3.Append("Computer Science", int64(1))
	db.Add(d3)
	return db
}

func extract(t *testing.T, db *relation.Database, sql string) *query.Provenance {
	t.Helper()
	p, err := query.Extract(sqlparse.MustParse(sql), db)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCanonicalizeFigure3(t *testing.T) {
	db := fig1DB()
	p1 := extract(t, db, "SELECT COUNT(Program) FROM D1")
	t1, err := Canonicalize(p1, []string{"Program"})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3a: 6 canonical tuples, CS has impact 2.
	if t1.Len() != 6 {
		t.Fatalf("|T1| = %d, want 6", t1.Len())
	}
	byKey := map[string]float64{}
	for i, k := range canonKeys(t1) {
		byKey[k] = t1.Impacts[i]
	}
	if byKey["CS"] != 2 || byKey["Design"] != 1 {
		t.Fatalf("impacts = %v", byKey)
	}
	if t1.TotalImpact() != 7 {
		t.Fatalf("total impact = %v, want 7 (canonicalization preserves impact)", t1.TotalImpact())
	}
	// CS consolidates two provenance rows.
	for i, k := range canonKeys(t1) {
		if k == "CS" && len(t1.Rows(i)) != 2 {
			t.Fatalf("CS source rows = %v", t1.Rows(i))
		}
	}
}

func TestCanonicalizeStrictForAvg(t *testing.T) {
	db := relation.NewDatabase("t")
	r := relation.New("T", "name", "v")
	r.Append("a", int64(1))
	r.Append("a", int64(3))
	db.Add(r)
	p := extract(t, db, "SELECT AVG(v) FROM T")
	c, err := Canonicalize(p, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("AVG must not consolidate: |T| = %d, want 2", c.Len())
	}
	pSum := extract(t, db, "SELECT SUM(v) FROM T")
	cSum, err := Canonicalize(pSum, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	if cSum.Len() != 1 || cSum.Impacts[0] != 4 {
		t.Fatalf("SUM consolidates: %v %v", cSum.Len(), cSum.Impacts)
	}
}

func TestCanonicalizeErrors(t *testing.T) {
	db := fig1DB()
	p := extract(t, db, "SELECT COUNT(Program) FROM D1")
	if _, err := Canonicalize(p, nil); err == nil {
		t.Fatal("no attributes should fail")
	}
	if _, err := Canonicalize(p, []string{"missing"}); err == nil {
		t.Fatal("unknown attribute should fail")
	}
}

// TestCanonicalizeRejectsNonFinite pins that a NaN or infinite row impact,
// and a canonical sum that overflows, fail canonicalization with the
// provenance row named instead of reaching the solver as a non-finite
// coefficient.
func TestCanonicalizeRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		v    []any
		want string
	}{
		{"nan", []any{1.0, math.NaN()}, "core: non-finite impact NaN in provenance row 1"},
		{"posinf", []any{math.Inf(1), 2.0}, "core: non-finite impact +Inf in provenance row 0"},
		{"neginf", []any{3.0, 4.0, math.Inf(-1)}, "core: non-finite impact -Inf in provenance row 2"},
		{"nanstring", []any{"NaN", 2.0}, "core: non-finite impact NaN in provenance row 0"},
		{"overflow", []any{math.MaxFloat64, math.MaxFloat64}, "core: canonical impact sum overflows to +Inf at provenance row 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := relation.NewDatabase("t")
			r := relation.New("T", "name", "v")
			for _, v := range tc.v {
				r.Append("a", v)
			}
			db.Add(r)
			_, err := Canonicalize(extract(t, db, "SELECT SUM(v) FROM T"), []string{"name"})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	// The largest finite sum still canonicalizes.
	db := relation.NewDatabase("t")
	r := relation.New("T", "name", "v")
	r.Append("a", math.MaxFloat64)
	r.Append("a", -math.MaxFloat64)
	db.Add(r)
	c, err := Canonicalize(extract(t, db, "SELECT SUM(v) FROM T"), []string{"name"})
	if err != nil || c.Len() != 1 || c.Impacts[0] != 0 {
		t.Fatalf("finite sum: %v %v", c, err)
	}
}

// fig1Instance builds the Q1-vs-Q2 instance with a hand-specified initial
// mapping mirroring Example 2.
func fig1Instance(t *testing.T) *Instance {
	t.Helper()
	db := fig1DB()
	p1 := extract(t, db, "SELECT COUNT(Program) FROM D1")
	p2 := extract(t, db, "SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'")
	t1, err := Canonicalize(p1, []string{"Program"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Canonicalize(p2, []string{"Major"})
	if err != nil {
		t.Fatal(err)
	}
	idx := func(c *Canonical, key string) int {
		for i, k := range canonKeys(c) {
			if k == key {
				return i
			}
		}
		t.Fatalf("key %q not found in %v", key, canonKeys(c))
		return -1
	}
	matches := []linkage.Match{
		{L: idx(t1, "Accounting"), R: idx(t2, "Accounting"), P: 1.0},
		{L: idx(t1, "CS"), R: idx(t2, "CSE"), P: 0.9},
		{L: idx(t1, "ECE"), R: idx(t2, "ECE"), P: 1.0},
		{L: idx(t1, "EE"), R: idx(t2, "EE"), P: 1.0},
		{L: idx(t1, "Management"), R: idx(t2, "Management"), P: 1.0},
		{L: idx(t1, "Design"), R: idx(t2, "Design"), P: 1.0},
	}
	return &Instance{T1: t1, T2: t2, Matches: matches,
		Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: true}}
}

func TestSolveInstanceFigure1Q1Q2(t *testing.T) {
	inst := fig1Instance(t)
	expl, stats, err := SolveInstance(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Evidence) != 6 {
		t.Fatalf("evidence = %d matches, want all 6", len(expl.Evidence))
	}
	if len(expl.Prov) != 0 {
		t.Fatalf("Δ = %v, want empty", expl.Prov)
	}
	// Exactly one value-based explanation: the CS double count.
	if len(expl.Val) != 1 {
		t.Fatalf("δ = %v, want one (CS/CSE)", expl.Val)
	}
	ve := expl.Val[0]
	key := inst.T1.KeyWriter().Key(ve.Tuple)
	if ve.Side == Right {
		key = inst.T2.KeyWriter().Key(ve.Tuple)
	}
	if key != "CS" && key != "CSE" {
		t.Fatalf("value explanation on %q, want CS or CSE", key)
	}
	if err := CheckComplete(inst, expl); err != nil {
		t.Fatalf("solution incomplete: %v", err)
	}
	if stats.Partitions != 1 {
		t.Fatalf("partitions = %d", stats.Partitions)
	}
}

// fig1Q1Q3Instance: Q1 (programs) vs Q3 (colleges) with containment
// mapping program ⊑ college, including the ambiguous CS match.
func fig1Q1Q3Instance(t *testing.T) *Instance {
	t.Helper()
	db := fig1DB()
	p1 := extract(t, db, "SELECT COUNT(Program) FROM D1")
	p3 := extract(t, db, "SELECT SUM(Num_bach) FROM D3")
	t1, err := Canonicalize(p1, []string{"Program"})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Canonicalize(p3, []string{"College"})
	if err != nil {
		t.Fatal(err)
	}
	idx := func(c *Canonical, key string) int {
		for i, k := range canonKeys(c) {
			if k == key {
				return i
			}
		}
		t.Fatalf("key %q missing", key)
		return -1
	}
	matches := []linkage.Match{
		{L: idx(t1, "Accounting"), R: idx(t3, "Business"), P: 0.9},
		{L: idx(t1, "Management"), R: idx(t3, "Business"), P: 0.9},
		{L: idx(t1, "ECE"), R: idx(t3, "Engineering"), P: 0.9},
		{L: idx(t1, "EE"), R: idx(t3, "Engineering"), P: 0.9},
		{L: idx(t1, "CS"), R: idx(t3, "Computer Science"), P: 0.8},
		{L: idx(t1, "CS"), R: idx(t3, "Engineering"), P: 0.3},
	}
	return &Instance{T1: t1, T2: t3, Matches: matches,
		Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: false}}
}

func TestSolveInstanceFigure1Q1Q3(t *testing.T) {
	inst := fig1Q1Q3Instance(t)
	expl, _, err := SolveInstance(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckComplete(inst, expl); err != nil {
		t.Fatalf("solution incomplete: %v", err)
	}
	// Design has no candidate: must be a provenance-based explanation.
	if len(expl.Prov) != 1 || expl.Prov[0].Side != Left || inst.T1.KeyWriter().Key(expl.Prov[0].Tuple) != "Design" {
		t.Fatalf("Δ = %v, want exactly Design", expl.Prov)
	}
	// CS must map to Computer Science (p=0.8 beats 0.3 and avoids extra
	// explanations), with one value fix for the double-counted degree.
	foundCS := false
	for _, ev := range expl.Evidence {
		if inst.T1.KeyWriter().Key(ev.L) == "CS" {
			foundCS = true
			if inst.T2.KeyWriter().Key(ev.R) != "Computer Science" {
				t.Fatalf("CS mapped to %q, want Computer Science", inst.T2.KeyWriter().Key(ev.R))
			}
		}
	}
	if !foundCS {
		t.Fatal("CS not in evidence")
	}
	if len(expl.Val) != 1 {
		t.Fatalf("δ = %v, want one (CS count)", expl.Val)
	}
}

func TestSolveInstancePartitionedMatchesUnpartitioned(t *testing.T) {
	inst := fig1Q1Q3Instance(t)
	p := DefaultParams()
	noOpt, _, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	p.BatchSize = 4
	batched, stats, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partitions < 2 {
		t.Fatalf("expected multiple partitions, got %d", stats.Partitions)
	}
	if err := CheckComplete(inst, batched); err != nil {
		t.Fatalf("batched solution incomplete: %v", err)
	}
	// Identical scores here: the partitioner only cuts the low-probability
	// CS→Engineering edge.
	sNo := Score(inst, noOpt, p)
	sBatch := Score(inst, batched, p)
	if math.Abs(sNo-sBatch) > 1e-6 {
		t.Fatalf("scores diverge: noopt %v vs batched %v", sNo, sBatch)
	}
}

func TestScoreHandComputed(t *testing.T) {
	// One tuple each side, one match p=0.8, both impacts equal.
	t1 := &Canonical{Impacts: []float64{1}}
	t2 := &Canonical{Impacts: []float64{1}}
	inst := &Instance{T1: t1, T2: t2,
		Matches: []linkage.Match{{L: 0, R: 0, P: 0.8}},
		Card:    Cardinality{LeftAtMostOne: true, RightAtMostOne: true}}
	p := DefaultParams()
	_, _, c := logConsts(p)
	e := &Explanations{Evidence: []Evidence{{L: 0, R: 0, P: 0.8}}}
	want := 2*c + math.Log(0.8)
	if got := Score(inst, e, p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("score = %v, want %v", got, want)
	}
	// Deleting both and rejecting the match.
	a, _, _ := logConsts(p)
	eDel := &Explanations{Prov: []ProvExpl{{Left, 0}, {Right, 0}}}
	want = 2*a + math.Log(1-0.8)
	if got := Score(inst, eDel, p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("score = %v, want %v", got, want)
	}
	// Contradictory explanations have probability zero.
	eBad := &Explanations{
		Prov: []ProvExpl{{Left, 0}},
		Val:  []ValExpl{{Side: Left, Tuple: 0, NewImpact: 5}},
	}
	if got := Score(inst, eBad, p); !math.IsInf(got, -1) {
		t.Fatalf("contradictory score = %v, want -Inf", got)
	}
}

func TestExplanationsFromEvidence(t *testing.T) {
	t1 := &Canonical{Impacts: []float64{2, 1, 1}}
	t2 := &Canonical{Impacts: []float64{1, 1}}
	inst := &Instance{T1: t1, T2: t2, Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: true}}
	ev := []Evidence{{L: 0, R: 0, P: 1}, {L: 1, R: 1, P: 1}}
	e := ExplanationsFromEvidence(inst, ev)
	// c (left 2) is unmatched → Δ; component a has 2 vs 1 → δ.
	if len(e.Prov) != 1 || e.Prov[0].Tuple != 2 {
		t.Fatalf("Δ = %v", e.Prov)
	}
	if len(e.Val) != 1 || e.Val[0].Side != Right || e.Val[0].Tuple != 0 || e.Val[0].NewImpact != 2 {
		t.Fatalf("δ = %v", e.Val)
	}
}

func TestCheckCompleteViolations(t *testing.T) {
	t1 := &Canonical{Impacts: []float64{1, 1}}
	t2 := &Canonical{Impacts: []float64{1, 1}}
	inst := &Instance{T1: t1, T2: t2, Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: true}}

	// Kept but unmatched.
	if err := CheckComplete(inst, &Explanations{
		Evidence: []Evidence{{L: 0, R: 0}},
		Prov:     []ProvExpl{{Right, 1}},
	}); err == nil {
		t.Fatal("left tuple 1 kept but unmatched should fail")
	}
	// Cardinality violation.
	if err := CheckComplete(inst, &Explanations{
		Evidence: []Evidence{{L: 0, R: 0}, {L: 0, R: 1}, {L: 1, R: 1}},
	}); err == nil {
		t.Fatal("degree-2 left tuple should fail under ≡")
	}
	// Evidence touching deleted tuple.
	if err := CheckComplete(inst, &Explanations{
		Evidence: []Evidence{{L: 0, R: 0}, {L: 1, R: 1}},
		Prov:     []ProvExpl{{Left, 0}},
	}); err == nil {
		t.Fatal("deleted tuple with evidence should fail")
	}
	// Impact inequality.
	t2b := &Canonical{Impacts: []float64{5, 1}}
	inst2 := &Instance{T1: t1, T2: t2b, Card: inst.Card}
	if err := CheckComplete(inst2, &Explanations{
		Evidence: []Evidence{{L: 0, R: 0}, {L: 1, R: 1}},
	}); err == nil {
		t.Fatal("unequal impacts without δ should fail")
	}
	// Fixed by a value explanation.
	if err := CheckComplete(inst2, &Explanations{
		Evidence: []Evidence{{L: 0, R: 0}, {L: 1, R: 1}},
		Val:      []ValExpl{{Side: Right, Tuple: 0, NewImpact: 1}},
	}); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
	// Deleted and value-corrected simultaneously.
	if err := CheckComplete(inst, &Explanations{
		Evidence: []Evidence{{L: 1, R: 1}},
		Prov:     []ProvExpl{{Left, 0}, {Right, 0}},
		Val:      []ValExpl{{Side: Left, Tuple: 0, NewImpact: 2}},
	}); err == nil {
		t.Fatal("deleted+corrected tuple should fail")
	}
	// A tuple id outside the instance.
	if err := CheckComplete(inst, &Explanations{
		Evidence: []Evidence{{L: 0, R: 0}, {L: 1, R: 2}},
	}); err == nil {
		t.Fatal("evidence on right tuple 2 of 2 should fail")
	}
}

// TestCheckCompleteReportsLowestViolation gives CheckComplete inputs with
// two violations of one kind, spread apart in insertion order, and requires
// the same message, naming the lowest violation, on every call.
func TestCheckCompleteReportsLowestViolation(t *testing.T) {
	canon := func(impacts ...float64) *Canonical { return &Canonical{Impacts: impacts} }
	eight := canon(1, 1, 1, 1, 1, 1, 1, 1)
	pairs := func() []Evidence {
		var ev []Evidence
		for i := 0; i < 8; i++ {
			ev = append(ev, Evidence{L: i, R: i})
		}
		return ev
	}
	cases := []struct {
		name string
		inst *Instance
		ev   []Evidence
		want string
	}{
		{
			name: "left degree",
			inst: &Instance{T1: eight, T2: canon(1, 1, 1, 1, 1, 1, 1, 1, 0, 0), Card: Cardinality{LeftAtMostOne: true}},
			ev:   append(pairs(), Evidence{L: 4, R: 9}, Evidence{L: 0, R: 8}),
			want: "core: left tuple 0 has degree 2 under a left-restricted mapping",
		},
		{
			name: "right degree",
			inst: &Instance{T1: canon(1, 1, 1, 1, 1, 1, 1, 1, 0, 0), T2: eight, Card: Cardinality{RightAtMostOne: true}},
			ev:   append(pairs(), Evidence{L: 9, R: 4}, Evidence{L: 8, R: 0}),
			want: "core: right tuple 0 has degree 2 under a right-restricted mapping",
		},
		{
			name: "impact equality",
			inst: &Instance{T1: eight, T2: canon(2, 1, 1, 1, 3, 1, 1, 1)},
			ev:   pairs(),
			want: "core: component containing left [0] right [0] violates impact equality: 1 vs 2",
		},
	}
	for _, tc := range cases {
		seen := map[string]int{}
		for k := 0; k < 50; k++ {
			err := CheckComplete(tc.inst, &Explanations{Evidence: tc.ev})
			if err == nil {
				t.Fatalf("%s: violation not reported", tc.name)
			}
			seen[err.Error()]++
		}
		if len(seen) != 1 || seen[tc.want] != 50 {
			t.Errorf("%s: messages over 50 calls = %v, want only %q", tc.name, seen, tc.want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	inst := fig1Instance(t)
	if _, _, err := SolveInstance(inst, Params{Alpha: 0.4, Beta: 0.9}); err == nil {
		t.Fatal("alpha ≤ 0.5 should fail")
	}
	if _, _, err := SolveInstance(inst, Params{Alpha: 0.9, Beta: 1.5}); err == nil {
		t.Fatal("beta > 1 should fail")
	}
}
