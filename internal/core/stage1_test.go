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

// TestBuildInstanceCalibratedFloor is the differential check of the
// calibrated floor: BuildInstance scans at MinSim raised to
// Calibrator.SimFloor(MinProb), and must give the same matches and
// explanations as the raw Stage-1 prefix at the caller's MinSim, calibrated
// and filtered afterwards. The calibrator is fitted on synthetic labels so
// that its lowest surviving bucket holds matches, the bucket below it
// carries a small positive probability under the 0.02 default, and the top
// bucket is rejected.
func TestBuildInstanceCalibratedFloor(t *testing.T) {
	im, err := datagen.GenerateIMDb(datagen.IMDbSpec{Movies: 600, Persons: 100, StartYear: 2000, EndYear: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q1, q2, mattr, err := datagen.Templates()[2].Instantiate("2000") // Q3 count comedies
	if err != nil {
		t.Fatal(err)
	}
	popt := linkage.DefaultPairOptions()
	in := Input{DB1: im.DB1, DB2: im.DB2, Q1: q1, Q2: q2, Mattr: mattr, PairOpts: &popt, Workers: 1}
	raw, err := BuildStage1(in)
	if err != nil {
		t.Fatal(err)
	}
	sims := make([]float64, len(raw.RawMatches))
	truth := make([]bool, len(raw.RawMatches))
	for i, m := range raw.RawMatches {
		sims[i] = m.Sim
		// Title Jaccard 1/5, 1/2 and 1 at an equal year put the pairs in
		// buckets 30, 37 and 49: a few true pairs low, half high, none at
		// the top.
		truth[i] = (m.Sim < 0.7 && i%100 == 0) || (m.Sim >= 0.7 && m.Sim < 1 && i%2 == 0)
	}
	cal := linkage.NewCalibrator(50)
	if err := cal.Fit(sims, truth); err != nil {
		t.Fatal(err)
	}
	in.Calibrator = cal
	want := raw.Instance(cal, 0)
	floor := cal.SimFloor(0.02)
	lowest := 0
	for _, m := range want.Matches {
		if m.Sim < floor+1.0/50 {
			lowest++
		}
	}
	raisedOpt := popt
	raisedOpt.MinSim = floor
	raisedIn := in
	raisedIn.PairOpts = &raisedOpt
	raised, err := BuildStage1(raisedIn)
	if err != nil {
		t.Fatal(err)
	}
	if floor <= popt.MinSim || lowest == 0 || len(raised.RawMatches) >= len(raw.RawMatches) {
		t.Fatalf("degenerate workload: floor %v, %d kept matches in its bucket, %d of %d raw matches scanned at the floor",
			floor, lowest, len(raised.RawMatches), len(raw.RawMatches))
	}
	p := DefaultParams()
	p.BatchSize = 16
	for _, workers := range []int{1, 2} {
		in := in
		in.Workers = workers
		p := p
		p.Workers = workers
		inst, _, err := BuildInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inst.Matches, want.Matches) {
			t.Fatalf("workers=%d: BuildInstance kept %d matches, the unraised prefix %d", workers, len(inst.Matches), len(want.Matches))
		}
		res, err := ExplainContext(context.Background(), in, p)
		if err != nil {
			t.Fatal(err)
		}
		expl, _, err := SolveInstanceContext(context.Background(), want, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Expl, expl) {
			t.Fatalf("workers=%d: explanations differ from the unraised prefix's", workers)
		}
	}
}
