package core

import (
	"context"
	"reflect"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
)

func academicInput(t *testing.T) Input {
	t.Helper()
	spec := datagen.AcademicSpec{
		Name:     "UMass",
		Matching: 30, MultiDegree: 10, TripleDegree: 3, MultiDegreeWrong: 6,
		MissingAssoc: 6, MissingOther: 5, AgencyOnly: 4,
		Renamed: 3, HardRenamed: 2, CorruptCounts: 3,
		Seed: 7,
	}
	pair := datagen.GenerateAcademic(spec)
	return Input{DB1: pair.DB1, DB2: pair.DB2, Q1: pair.Q1, Q2: pair.Q2, Mattr: pair.Mattr}
}

// TestPrebuiltStage1Equivalence pins the serving contract: the path a
// resident server takes — prebuilt sides, a prebuilt right-side candidate
// index, BuildPairPrefixFrom, then ExplainPrefixContext — produces matches,
// canonical keys and explanations identical to one-shot ExplainContext.
func TestPrebuiltStage1Equivalence(t *testing.T) {
	in := academicInput(t)
	p := DefaultParams()
	p.BatchSize = 16
	ctx := context.Background()
	plain, err := ExplainContext(ctx, in, p)
	if err != nil {
		t.Fatal(err)
	}

	s1, err := BuildSide(in.Q1, in.DB1, in.Mattr.LeftAttrs(), "Q1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildSide(in.Q2, in.DB2, in.Mattr.RightAttrs(), "Q2")
	if err != nil {
		t.Fatal(err)
	}
	pi, err := BuildPairIndex(s2.Canon, in.Mattr, linkage.DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	pp, err := BuildPairPrefixFrom(s1, s2, in.Mattr, pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	served, err := ExplainPrefixContext(ctx, pp, nil, 0, p, nil)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Instance.Matches, served.Instance.Matches) {
		t.Fatalf("prebuilt path diverged: %d vs %d matches", len(plain.Instance.Matches), len(served.Instance.Matches))
	}
	if !reflect.DeepEqual(plain.T1.Keys, served.T1.Keys) || !reflect.DeepEqual(plain.T2.Keys, served.T2.Keys) {
		t.Fatal("canonical keys differ between one-shot and prebuilt builds")
	}
	if !reflect.DeepEqual(plain.Expl, served.Expl) {
		t.Fatal("explanations differ between one-shot and prebuilt builds")
	}
}

// TestStage1InstanceReuse derives instances with different thresholds from
// one Stage-1 prefix and checks the prefix is not consumed or mutated.
func TestStage1InstanceReuse(t *testing.T) {
	in := academicInput(t)
	s, err := BuildStage1(in)
	if err != nil {
		t.Fatal(err)
	}
	rawLen := len(s.RawMatches)
	loose := s.Instance(nil, 0.02)
	tight := s.Instance(nil, 0.5)
	if len(s.RawMatches) != rawLen {
		t.Fatal("Instance mutated the Stage-1 prefix")
	}
	if len(tight.Matches) > len(loose.Matches) {
		t.Fatalf("tighter threshold kept more matches: %d > %d", len(tight.Matches), len(loose.Matches))
	}
	for _, m := range tight.Matches {
		if m.P < 0.5 {
			t.Fatalf("minProb=0.5 instance kept match with P=%v", m.P)
		}
	}
	again := s.Instance(nil, 0.02)
	if !reflect.DeepEqual(loose.Matches, again.Matches) {
		t.Fatal("repeated Instance derivation is not deterministic")
	}
}

// TestSolveInstanceContextCancelled pins the graceful-abort contract: a
// cancelled caller context is not an error — the solve returns complete
// (fallback or incumbent) explanations with TimedOut set.
func TestSolveInstanceContextCancelled(t *testing.T) {
	inst := fig1Instance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	expl, stats, err := SolveInstanceContext(ctx, inst, DefaultParams())
	if err != nil {
		t.Fatalf("cancelled context must not error: %v", err)
	}
	if !stats.TimedOut {
		t.Fatal("cancelled solve must set Stats.TimedOut")
	}
	if expl == nil {
		t.Fatal("cancelled solve must still return explanations")
	}
}

// TestExplainContextCancelled checks the end-to-end context path.
func TestExplainContextCancelled(t *testing.T) {
	in := academicInput(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExplainContext(ctx, in, DefaultParams())
	if err != nil {
		t.Fatalf("cancelled context must not error: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("cancelled explain must set Stats.TimedOut")
	}
}
