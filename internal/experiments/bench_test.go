package experiments

import (
	"sync"
	"testing"
	"time"

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
	in := oneshotMILPInput(b)
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

// oneshotMILPInput builds e3bench's oneshot-milp input (seed 1): Q5 over a
// 10000-movie IMDb pair, MinSharedTokens 2, two workers, and a calibrator
// fitted from the entity-id gold, with the default MinProb.
func oneshotMILPInput(b *testing.B) core.Input {
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
	return in
}

// BenchmarkSummarizeSide runs Stage 3 on oneshot-milp's result (BatchSize
// 1000, two workers, built in setup): each side alone, and both sides in
// parallel as explain3d.ConvertResult runs them.
func BenchmarkSummarizeSide(b *testing.B) {
	p := core.DefaultParams()
	p.BatchSize, p.Workers, p.SolverTimeLimit = 1000, 2, time.Minute
	res, err := core.Explain(oneshotMILPInput(b), p)
	if err != nil {
		b.Fatal(err)
	}
	if res.Stats.TimedOut {
		b.Fatal("solver budget expired")
	}
	for _, side := range []struct {
		name string
		s    core.Side
	}{{"left", core.Left}, {"right", core.Right}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				SummarizeSide(res, res.Expl, side.s)
			}
		})
	}
	b.Run("both", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var wg sync.WaitGroup
			for _, side := range []core.Side{core.Left, core.Right} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					SummarizeSide(res, res.Expl, side)
				}()
			}
			wg.Wait()
		}
	})
}
