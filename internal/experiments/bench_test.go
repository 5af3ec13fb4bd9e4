package experiments

import (
	"testing"

	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
)

// BenchmarkBuildInstanceCalibrated runs one-shot Stage 1 at the shape of
// e3bench's oneshot-milp workload: Q5 (total gross) over a 10000-movie IMDb
// pair, MinSharedTokens 2, two workers, and a calibrator fitted from the
// entity-id gold in setup. BuildInstance scans at the calibrator's
// similarity floor for the default MinProb (0.02), so the benchmark measures
// the scan the floor leaves, plus extraction and canonicalization.
func BenchmarkBuildInstanceCalibrated(b *testing.B) {
	im, err := datagen.GenerateIMDb(datagen.IMDbSpec{Movies: 10000, Persons: 100, StartYear: 2000, EndYear: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tpl := datagen.Templates()[4]
	q1, q2, mattr, err := tpl.Instantiate("2000")
	if err != nil {
		b.Fatal(err)
	}
	popt := linkage.DefaultPairOptions()
	popt.MinSharedTokens = 2
	in := core.Input{DB1: im.DB1, DB2: im.DB2, Q1: q1, Q2: q2, Mattr: mattr, MinProb: 1e-9, PairOpts: &popt, Workers: 2}
	inst, res, err := core.BuildInstance(in)
	if err != nil {
		b.Fatal(err)
	}
	gold, err := GoldFromEIDs(inst, res.Prov1, res.Prov2, tpl.EID1, tpl.EID2)
	if err != nil {
		b.Fatal(err)
	}
	if in.Calibrator, err = FitCalibrator(inst.Matches, gold); err != nil {
		b.Fatal(err)
	}
	in.MinProb = 0
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		inst, _, err := core.BuildInstance(in)
		if err != nil {
			b.Fatal(err)
		}
		total += len(inst.Matches)
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches")
}
