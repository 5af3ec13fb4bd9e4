package datagen

import (
	"strings"
	"testing"

	"explain3d/internal/query"
)

func TestScenarioGeneratorShape(t *testing.T) {
	spec := ScenarioSpec{Rows: 5000, Disagree: 0.02, Noise: 0.1, ExtraCols: 2, NullRate: 0.3, Seed: 17}
	s := GenerateScenario(spec)
	t1, _ := s.DB1.Relation("Scen1")
	t2, _ := s.DB2.Relation("Scen2")
	if t1.Len()+t2.Len() != 2*spec.Rows-s.Dropped {
		t.Fatalf("|T1|+|T2| = %d, want %d (2·rows − %d drops)",
			t1.Len()+t2.Len(), 2*spec.Rows-s.Dropped, s.Dropped)
	}
	// Treatment counts are roughly rate-proportional (loose bounds).
	if s.Dropped < 20 || s.Dropped > 90 {
		t.Fatalf("dropped = %d, want ≈50", s.Dropped)
	}
	if s.Corrupted < 20 || s.Corrupted > 90 {
		t.Fatalf("corrupted = %d, want ≈50", s.Corrupted)
	}
	if s.Noised < 350 || s.Noised > 650 {
		t.Fatalf("noised = %d, want ≈500", s.Noised)
	}
	// Disjoint pair: separate dictionaries.
	if t1.Dict() == t2.Dict() {
		t.Fatal("the two sides must not share a dictionary")
	}
	// Keys embed the unique id token.
	kidx := t1.Schema.MustIndex("match_attr")
	for i := 0; i < 10; i++ {
		if !strings.HasPrefix(t1.At(i, kidx).Str(), "e0") {
			t.Fatalf("row %d key %q lacks the id token", i, t1.At(i, kidx).Str())
		}
	}
	// Queries disagree by construction (drops + corruptions).
	v1, err := query.RunScalar(s.Q1, s.DB1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := query.RunScalar(s.Q2, s.DB2)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Equal(v2) {
		t.Fatalf("queries agree (%v) — generator produced no disagreement", v1)
	}
}

func TestScenarioDeterministic(t *testing.T) {
	spec := ScenarioSpec{Rows: 1000, Seed: 23, ExtraCols: 1, NullRate: 0.2}
	a := GenerateScenario(spec)
	b := GenerateScenario(spec)
	ra, _ := a.DB1.Relation("Scen1")
	rb, _ := b.DB1.Relation("Scen1")
	if ra.Len() != rb.Len() {
		t.Fatal("same seed, different sizes")
	}
	for i := 0; i < ra.Len(); i++ {
		for j := 0; j < ra.Schema.Len(); j++ {
			if !ra.At(i, j).Identical(rb.At(i, j)) {
				t.Fatalf("same seed, different cell (%d,%d)", i, j)
			}
		}
	}
	if a.Dropped != b.Dropped || a.Corrupted != b.Corrupted || a.Noised != b.Noised {
		t.Fatal("same seed, different treatment counts")
	}
}
