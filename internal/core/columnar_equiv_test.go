package core

import (
	"reflect"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// mustMatching parses an attribute matching or fails the test.
func mustMatching(t *testing.T, spec string) schemamap.Matching {
	t.Helper()
	m, err := schemamap.ParseAll(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runEquivalence runs the full pipeline twice on the same input — once
// through BuildInstance, which scans at the calibrated similarity floor, at
// each worker count, once by solving the instance the raw Stage-1 prefix
// gives at the caller's unraised options — and demands identical matches,
// explanations, and evidence. The index scan itself is checked against the
// pairwise reference in package linkage.
func runEquivalence(t *testing.T, in Input, p Params) {
	t.Helper()
	inst, _, err := BuildInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStage1(in)
	if err != nil {
		t.Fatal(err)
	}
	ref := st.Instance(in.Calibrator, in.MinProb)
	if !reflect.DeepEqual(inst.Matches, ref.Matches) {
		t.Fatalf("BuildInstance diverged from the unraised Stage-1 prefix: %d vs %d matches",
			len(inst.Matches), len(ref.Matches))
	}

	var base *Explanations
	for _, workers := range []int{1, 2, 5} {
		in := in
		in.Workers = workers
		p := p
		p.Workers = workers
		res, err := Explain(in, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res.Expl
			continue
		}
		if !reflect.DeepEqual(res.Expl, base) {
			t.Fatalf("workers=%d: explanations differ from workers=1", workers)
		}
	}

	// The unraised instance must also solve to the same explanations —
	// Stage 2 sees byte-identical input.
	expl, _, err := SolveInstance(ref, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expl, base) {
		t.Fatal("explanations from the reference mapping differ")
	}
}

// TestColumnarEquivalenceQuickstart mirrors the README quick start: two
// tiny program catalogs counted two ways.
func TestColumnarEquivalenceQuickstart(t *testing.T) {
	db := fig1DB()
	in := Input{
		DB1:   db,
		DB2:   db,
		Q1:    sqlparse.MustParse("SELECT COUNT(Program) FROM D1"),
		Q2:    sqlparse.MustParse("SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'"),
		Mattr: mustMatching(t, "D1.Program == D2.Major"),
	}
	runEquivalence(t, in, DefaultParams())
}

// TestColumnarEquivalenceAcademic runs an academic pair — the paper's
// Example 1 shape, with multi-token program names, mixed numeric columns,
// and real disagreements — through both Stage-1 implementations. The spec
// is a scaled-down UMassLike so the four full solves (three worker counts
// plus the reference mapping's solve) stay fast in tier-1.
func TestColumnarEquivalenceAcademic(t *testing.T) {
	spec := datagen.AcademicSpec{
		Name:     "UMass",
		Matching: 30, MultiDegree: 10, TripleDegree: 3, MultiDegreeWrong: 6,
		MissingAssoc: 6, MissingOther: 5, AgencyOnly: 4,
		Renamed: 3, HardRenamed: 2, CorruptCounts: 3,
		Seed: 7,
	}
	pair := datagen.GenerateAcademic(spec)
	in := Input{
		DB1:   pair.DB1,
		DB2:   pair.DB2,
		Q1:    pair.Q1,
		Q2:    pair.Q2,
		Mattr: pair.Mattr,
	}
	p := DefaultParams()
	// Small batches keep every MILP sub-problem trivial: uncalibrated
	// similarities chain programs through shared words ("Science", ...)
	// into one large component, and this test is about Stage-1 equivalence,
	// not solver throughput.
	p.BatchSize = 16
	runEquivalence(t, in, p)
}
