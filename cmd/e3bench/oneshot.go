package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/experiments"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
)

// oneshot is a one-shot workload's resident input: the data, the query
// pair as text (every operation parses it), and the solver settings.
type oneshot struct {
	db1, db2          *relation.Database
	sql1, sql2, mattr string
	eid1, eid2        string
	popt              linkage.PairOptions
	cal               *linkage.Calibrator
	params            core.Params
	refBody           []byte
	refRes            *core.Result
}

// explain is the untraced operation: parse, core.ExplainContext,
// ConvertResult with summaries, json.Marshal.
func (w *oneshot) explain(ctx context.Context) ([]byte, *core.Result, error) {
	p, err := parseAll(w.sql1, w.sql2, w.mattr)
	if err != nil {
		return nil, nil, err
	}
	popt := w.popt
	res, err := core.ExplainContext(ctx, core.Input{
		DB1: w.db1, DB2: w.db2, Q1: p.q1, Q2: p.q2, Mattr: p.mattr,
		Calibrator: w.cal, PairOpts: &popt, Workers: workers,
	}, w.params)
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(explain3d.ConvertResult(res, true))
	return body, res, err
}

// tracedExplain is the same operation composed from the layers' public
// calls, one span each.
func (w *oneshot) tracedExplain(ctx context.Context) (*traced, error) {
	tr := newOpTrace()
	p, err := traceParse(tr, w.sql1, w.sql2, w.mattr)
	if err != nil {
		return nil, err
	}
	s1, s2, err := traceSides(tr, p, w.db1, w.db2)
	if err != nil {
		return nil, err
	}
	pp, err := tracePrefix(tr, s1, s2, p.mattr, w.popt)
	if err != nil {
		return nil, err
	}
	return finishTrace(ctx, tr, pp, w.cal, w.params, nil)
}

// runOneshotMILP is Fig 7c's 20k-tuple point: IMDb total gross for one
// year, calibrated. The MILP does most of the work. Quality varies with the
// generated data, so expl_f1 and evidence_f1 average this dataset and four
// more generated from the run's seed.
func runOneshotMILP(ctx context.Context, cfg config, out *outcome) (map[string]float64, error) {
	tpl := datagen.Templates()[4] // Q5 total-gross
	sql1, sql2 := tpl.SQL("2000")
	newCase := func(seed int64) (*oneshot, error) {
		im, err := datagen.GenerateIMDb(datagen.IMDbSpec{
			Movies: scaled(10000, cfg.scale, 500), Persons: 100,
			StartYear: 2000, EndYear: 2000, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		popt := linkage.DefaultPairOptions()
		popt.MinSharedTokens = 2
		w := &oneshot{
			db1: im.DB1, db2: im.DB2, sql1: sql1, sql2: sql2, mattr: tpl.MattrText,
			eid1: tpl.EID1, eid2: tpl.EID2, popt: popt,
			params: explain3d.CoreParams(&explain3d.Options{BatchSize: 1000, Workers: workers}),
		}
		// Section 5.1.2: fit the similarity-to-probability calibrator once,
		// against gold from the hidden entity ids.
		p, err := parseAll(sql1, sql2, tpl.MattrText)
		if err != nil {
			return nil, err
		}
		inst, res, err := core.BuildInstance(core.Input{
			DB1: w.db1, DB2: w.db2, Q1: p.q1, Q2: p.q2, Mattr: p.mattr,
			MinProb: 1e-9, PairOpts: &popt, Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		gold, err := experiments.GoldFromEIDs(inst, res.Prov1, res.Prov2, tpl.EID1, tpl.EID2)
		if err != nil {
			return nil, err
		}
		if w.cal, err = experiments.FitCalibrator(inst.Matches, gold); err != nil {
			return nil, err
		}
		return w, w.warmUp(ctx)
	}
	return runOneshot(ctx, cfg, out, newCase, 5)
}

// runOneshotStage1 is a dense-vocabulary scenario without a calibrator:
// the Stage-1 index scan does most of the work and the MILP little.
func runOneshotStage1(ctx context.Context, cfg config, out *outcome) (map[string]float64, error) {
	newCase := func(seed int64) (*oneshot, error) {
		rows := scaled(20000, cfg.scale, 500)
		sc := datagen.GenerateScenario(datagen.ScenarioSpec{
			Rows: rows, Vocab: rows / 50, Disagree: 0.002, Noise: 0.02, Seed: seed,
		})
		popt := linkage.DefaultPairOptions()
		popt.MinSim = 0.6
		w := &oneshot{
			db1: sc.DB1, db2: sc.DB2, sql1: sc.Q1.String(), sql2: sc.Q2.String(), mattr: matchText(sc.Mattr),
			eid1: sc.Spec.Name + "1." + datagen.EIDColumn, eid2: sc.Spec.Name + "2." + datagen.EIDColumn,
			popt:   popt,
			params: explain3d.CoreParams(&explain3d.Options{BatchSize: 100, Workers: workers}),
		}
		return w, w.warmUp(ctx)
	}
	return runOneshot(ctx, cfg, out, newCase, 1)
}

// warmUp runs one untimed operation; its answer is the reference every
// timed operation must reproduce byte for byte.
func (w *oneshot) warmUp(ctx context.Context) error {
	body, res, err := w.explain(ctx)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if res.Stats.TimedOut {
		return fmt.Errorf("warm-up: solver budget expired (TimedOut)")
	}
	w.refBody, w.refRes = body, res
	return nil
}

// runOneshot runs a one-shot workload: a closed loop of one client. With
// tracing off it times the untraced operation; with tracing on it
// alternates the untraced operation with the traced composition and checks
// that both answer identically. Quality is the mean over qualityCases
// datasets: the run's own and more built from seeds derived from it.
func runOneshot(ctx context.Context, cfg config, out *outcome, newCase func(seed int64) (*oneshot, error), qualityCases int) (map[string]float64, error) {
	w, setupS, err := timedSetup(func() (*oneshot, error) { return newCase(cfg.seed) }, func(*oneshot) {})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var lat []float64
	layers := layerSamples{}
	var allocs, bytesAlloc []float64
	start := time.Now()
	for len(lat) == 0 || time.Now().Before(deadline) {
		out.attempted++
		meter := startAllocs()
		t := time.Now()
		body, res, err := w.explain(ctx)
		d := time.Since(t)
		a, b := meter.stop()
		lat = append(lat, ms(d))
		allocs, bytesAlloc = append(allocs, a), append(bytesAlloc, b)
		switch {
		case err != nil:
			out.fail("explain: %v", err)
			continue
		case res.Stats.TimedOut:
			out.fail("explain: solver budget expired (TimedOut)")
			continue
		case !bytes.Equal(body, w.refBody):
			out.fail("explain answered differently from the warm-up")
			continue
		}
		if !cfg.trace {
			continue
		}
		out.attempted++
		tx, err := w.tracedExplain(ctx)
		switch {
		case err != nil:
			out.fail("traced explain: %v", err)
			continue
		case !bytes.Equal(tx.body, body):
			out.fail("traced composition answered differently from core.ExplainContext")
			continue
		}
		layers.addTrace(tx.tr, d)
		layers.addCounts(tx)
	}
	elapsed := time.Since(start)
	m := map[string]float64{}
	if cfg.trace {
		m = zeroLayers()
		layers.into(m, len(layers["trace.coverage"]))
		m["go.allocs_per_op"] = median(allocs)
		m["go.bytes_per_op"] = median(bytesAlloc)
		return m, nil
	}
	m["setup_s"] = setupS
	m["explain_p50_ms"] = median(lat)
	m["miss_p50_ms"] = median(lat) // no result cache: every explain computes
	m["explain_per_s"] = float64(len(lat)) / elapsed.Seconds()
	m["heap_mib"] = heapMiB()
	var explF1, evidF1 []float64
	for k := 0; k < qualityCases; k++ {
		c := w
		if k > 0 {
			if c, err = newCase(cfg.seed*1_000_003 + int64(k)); err != nil {
				return nil, err
			}
		}
		e, v, err := scoreF1(c.refRes, c.eid1, c.eid2)
		if err != nil {
			return nil, err
		}
		explF1, evidF1 = append(explF1, e), append(evidF1, v)
	}
	m["expl_f1"], m["evidence_f1"] = mean(explF1), mean(evidF1)
	return m, nil
}
