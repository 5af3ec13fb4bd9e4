package core

import (
	"reflect"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/relation"
)

// segmentEquivSpec is a scaled-down academic pair: large enough that tiny
// segment sizes produce many segments, small enough that the grid of full
// solves stays fast.
func segmentEquivSpec() datagen.AcademicSpec {
	return datagen.AcademicSpec{
		Name:     "UMass",
		Matching: 20, MultiDegree: 6, TripleDegree: 2, MultiDegreeWrong: 4,
		MissingAssoc: 4, MissingOther: 3, AgencyOnly: 3,
		Renamed: 2, HardRenamed: 1, CorruptCounts: 2,
		Seed: 11,
	}
}

func explainAt(t *testing.T, spec datagen.AcademicSpec, p Params) *Result {
	t.Helper()
	// Relations capture the segment size when they are built, so the pair is
	// regenerated (deterministically, by seed) under each size under test.
	pair := datagen.GenerateAcademic(spec)
	res, err := Explain(Input{
		DB1: pair.DB1, DB2: pair.DB2,
		Q1: pair.Q1, Q2: pair.Q2,
		Mattr: pair.Mattr,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSegmentSizeSolveEquivalence is the tentpole acceptance property: the
// full pipeline — provenance, canonicalization, Stage-1 linkage, Stage-2
// MILP — must produce byte-identical explanations whatever segment size the
// relations are chunked at and however many workers solve sub-problems,
// including the pathological one-row segments and ragged boundaries.
func TestSegmentSizeSolveEquivalence(t *testing.T) {
	orig := relation.SegmentSize()
	defer relation.SetSegmentSize(orig)
	spec := segmentEquivSpec()
	p := DefaultParams()
	p.BatchSize = 16

	relation.SetSegmentSize(orig)
	base := explainAt(t, spec, p).Expl
	for _, segRows := range []int{1, 7, 64, 4096} {
		relation.SetSegmentSize(segRows)
		for _, workers := range []int{0, 1, 8} {
			pw := p
			pw.Workers = workers
			res := explainAt(t, spec, pw)
			if !reflect.DeepEqual(res.Expl, base) {
				t.Fatalf("segRows=%d workers=%d: explanations diverged from the default layout",
					segRows, workers)
			}
		}
	}
}
