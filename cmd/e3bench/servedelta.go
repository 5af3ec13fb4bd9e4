package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
	"explain3d/internal/serve"
)

// deltaRepeats is how many times each cycle re-asks the fresh answer; the
// repeats are result-cache hits.
const deltaRepeats = 3

// deltaState is serve-delta's resident state.
type deltaState struct {
	sc      *datagen.Scenario
	srv     *server
	rel     string
	payload []byte
	// coldBody is the answer on the original data, served during set-up.
	coldBody []byte
}

func deltaRequest(sc *datagen.Scenario) serve.Request {
	return serve.Request{
		Dataset: "scen", Q1: sc.Q1.String(), Q2: sc.Q2.String(), Matches: matchText(sc.Mattr),
		BatchSize: 100, Workers: workers,
		// A key is a unique id token and three filler words. A typo leaves
		// a true pair 3 of 5 tokens (0.6); keys that merely share filler
		// words stay at or below 2 of 6, so 0.5 keeps every true pair.
		MinSim: 0.5,
	}
}

func deltaPairOptions(rq serve.Request) linkage.PairOptions {
	popt := linkage.DefaultPairOptions()
	popt.MinSim = rq.MinSim
	return popt
}

func deltaParams(rq serve.Request) core.Params {
	return explain3d.CoreParams(&explain3d.Options{BatchSize: rq.BatchSize, Workers: workers})
}

// runServeDelta interleaves writes with reads over one query pair: each
// cycle posts a clustered 1% update batch (stationaryBatch), asks the fresh
// explanation once, then re-asks it deltaRepeats times.
func runServeDelta(ctx context.Context, cfg config, out *outcome) (map[string]float64, error) {
	build := func() (*deltaState, error) {
		rows := scaled(40000, cfg.scale, 2000)
		sc := datagen.GenerateScenario(datagen.ScenarioSpec{
			Rows: rows, Vocab: rows / 10, WordsPerKey: 3,
			Disagree: 0.01, Noise: 0.05, NoiseKind: "typo", Skew: 1.5,
			Seed: cfg.seed,
		})
		srv, err := startServer("scen", sc.DB1, sc.DB2)
		if err != nil {
			return nil, err
		}
		payload, err := json.Marshal(deltaRequest(sc))
		if err != nil {
			srv.close()
			return nil, err
		}
		// The cold solve: builds the Stage-1 prefix and fills the solution
		// cache every later delta amortizes against.
		r := srv.client().post("/explain", payload)
		if msg := explainFailure(r); msg != "" {
			srv.close()
			return nil, fmt.Errorf("cold solve: %s", msg)
		}
		return &deltaState{sc: sc, srv: srv, rel: sc.Spec.Name + "1", payload: payload, coldBody: r.body}, nil
	}
	st, setupS, err := timedSetup(build, func(s *deltaState) { s.srv.close() })
	if err != nil {
		return nil, err
	}
	defer st.srv.close()
	base, err := st.sc.DB1.Relation(st.rel)
	if err != nil {
		return nil, err
	}
	rq := deltaRequest(st.sc)

	var mirror *deltaMirror
	if cfg.trace {
		if mirror, err = newDeltaMirror(ctx, st.sc, rq); err != nil {
			return nil, err
		}
	}
	var all, fresh, hits, deltas []float64
	var batches []relation.Delta
	var prev []relation.RowUpdate
	var lastBody []byte
	var busy time.Duration
	layers := layerSamples{}
	cl := st.srv.client()
	before := st.srv.srv.Metrics()
	var allocs, bytesAlloc float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for cycle := 1; cycle == 1 || time.Now().Before(deadline); cycle++ {
		d, err := stationaryBatch(st.sc, base, prev, cfg.seed*1_000_003+int64(cycle))
		if err != nil {
			return nil, err
		}
		prev = d.Updates[:base.Len()/100]
		dp, err := deltaPayload(st.rel, d)
		if err != nil {
			return nil, err
		}
		out.attempted++
		meter := startAllocs()
		dr := cl.post("/datasets/scen/delta", dp)
		if dr.status != http.StatusOK {
			out.fail("delta %d: status %d %.200s", cycle, dr.status, dr.body)
			break // the server's data no longer follows the batches
		}
		batches = append(batches, d)
		deltas = append(deltas, ms(dr.d))
		busy += dr.d
		// The fresh answer is decoded for TimedOut; a repeat must be a hit
		// with the fresh answer's bytes.
		var first reply
		for rep := 0; rep <= deltaRepeats; rep++ {
			out.attempted++
			r := cl.post("/explain", st.payload)
			var msg string
			switch {
			case rep == 0:
				msg = explainFailure(r)
			case r.status != http.StatusOK:
				msg = fmt.Sprintf("status %d: %.200s", r.status, r.body)
			}
			if msg != "" {
				out.fail("cycle %d explain %d: %s", cycle, rep, msg)
				continue
			}
			busy += r.d
			all = append(all, ms(r.d))
			want := "hit"
			if rep == 0 {
				first, want = r, "miss"
				first.body = bytes.Clone(r.body)
				fresh = append(fresh, ms(r.d))
				lastBody = first.body
			} else {
				hits = append(hits, ms(r.d))
			}
			if r.cache != want {
				out.fail("cycle %d explain %d: cache %q, want %q", cycle, rep, r.cache, want)
			} else if !bytes.Equal(r.body, first.body) {
				out.fail("cycle %d explain %d: repeat differs from the fresh answer", cycle, rep)
			}
		}
		a, b := meter.stop()
		allocs, bytesAlloc = allocs+a, bytesAlloc+b
		if mirror != nil && first.body != nil {
			out.attempted++
			tx, err := mirror.replay(ctx, st.rel, d)
			if err != nil {
				return nil, fmt.Errorf("cycle %d replay: %w", cycle, err)
			}
			if !bytes.Equal(tx.body, first.body) {
				out.fail("cycle %d: replay differs from the served fresh answer", cycle)
				continue
			}
			layers.addTrace(tx.tr, dr.d+first.d)
			layers.addCounts(tx)
		}
	}
	explains := float64(len(all))

	if cfg.trace {
		m := zeroLayers()
		layers.into(m, len(layers["trace.coverage"]))
		mt := addMetrics(st.srv.srv.Metrics(), before, -1)
		serveRatios(m, mt)
		m["serve.hit_ms"] = median(hits)
		m["serve.delta_ms"] = median(deltas)
		m["serve.prefix_advances"] = ratio(float64(mt.PrefixAdvances), float64(mt.DeltasApplied))
		m["serve.dirty_partitions"] = ratio(float64(mt.DirtyPartitions), float64(mt.DeltasApplied))
		m["go.allocs_per_op"] = ratio(allocs, explains)
		m["go.bytes_per_op"] = ratio(bytesAlloc, explains)
		return m, nil
	}
	m := map[string]float64{
		"setup_s":        setupS,
		"explain_p50_ms": median(all),
		"miss_p50_ms":    median(fresh),
		// Closed loop with one client: request time is the run's time minus
		// the client generating its batches.
		"explain_per_s": explains / busy.Seconds(),
		"heap_mib":      heapMiB(),
	}

	// The cold answer must equal a one-shot run on the original data, and
	// the final answer one on the data after every batch; the first also
	// scores quality against gold.
	res, body, err := deltaOneshot(ctx, st.sc.DB1, st.sc, rq)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if !bytes.Equal(body, st.coldBody) {
		out.fail("cold answer differs from a one-shot run on the original data")
	}
	eid1, eid2 := st.rel+"."+datagen.EIDColumn, st.sc.Spec.Name+"2."+datagen.EIDColumn
	if m["expl_f1"], m["evidence_f1"], err = scoreF1(res, eid1, eid2); err != nil {
		return nil, err
	}
	if lastBody != nil {
		db1 := st.sc.DB1
		for _, d := range batches {
			if db1, _, err = db1.ApplyDelta(relation.DBDelta{st.rel: d}); err != nil {
				return nil, err
			}
		}
		_, body, err := deltaOneshot(ctx, db1, st.sc, rq)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if !bytes.Equal(body, lastBody) {
			out.fail("final answer differs from a one-shot recompute on the post-delta data")
		}
	}
	return m, nil
}

// stationaryBatch is one cycle's update batch: new values for a clustered
// 1% range of rows, plus the original values back on the rows of the
// previous batch's range it does not cover. The data is always the original
// plus one outstanding batch, so every cycle does the same kind of work
// however many cycles a run completes; batches that only accumulated would
// make each cycle dearer than the last. The new range's updates come first.
func stationaryBatch(sc *datagen.Scenario, base *relation.Relation, prev []relation.RowUpdate, seed int64) (relation.Delta, error) {
	d, err := sc.GenerateDelta(base, datagen.DeltaSpec{Updates: base.Len() / 100, Clustered: true, Seed: seed})
	if err != nil {
		return d, err
	}
	covered := make(map[int]bool, len(d.Updates))
	for _, u := range d.Updates {
		covered[u.Row] = true
	}
	for _, u := range prev {
		if !covered[u.Row] {
			d.Updates = append(d.Updates, relation.RowUpdate{Row: u.Row, Values: base.RowInto(nil, u.Row)})
		}
	}
	return d, nil
}

// deltaOneshot is the one-shot pipeline on db1 with the server's exact
// parameter resolution.
func deltaOneshot(ctx context.Context, db1 *relation.Database, sc *datagen.Scenario, rq serve.Request) (*core.Result, []byte, error) {
	popt := deltaPairOptions(rq)
	res, err := core.ExplainContext(ctx, core.Input{
		DB1: db1, DB2: sc.DB2, Q1: sc.Q1, Q2: sc.Q2, Mattr: sc.Mattr, PairOpts: &popt, Workers: workers,
	}, deltaParams(rq))
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(explain3d.ConvertResult(res, true))
	return res, body, err
}

// deltaMirror follows the server's data and caches through the public
// calls explaind makes, so each delta cycle can be replayed layer by layer.
type deltaMirror struct {
	db1    *relation.Database
	side2  *core.BuiltSide
	pp     *core.PairPrefix
	cache  *core.SolveCache
	rq     serve.Request
	params core.Params
}

// newDeltaMirror repeats the server's cold solve on the original data.
func newDeltaMirror(ctx context.Context, sc *datagen.Scenario, rq serve.Request) (*deltaMirror, error) {
	m := &deltaMirror{db1: sc.DB1, rq: rq, params: deltaParams(rq), cache: core.NewSolveCache(0)}
	s1, err := core.BuildSide(sc.Q1, sc.DB1, sc.Mattr.LeftAttrs(), "Q1")
	if err != nil {
		return nil, err
	}
	if m.side2, err = core.BuildSide(sc.Q2, sc.DB2, sc.Mattr.RightAttrs(), "Q2"); err != nil {
		return nil, err
	}
	pi, err := core.BuildPairIndex(m.side2.Canon, sc.Mattr, deltaPairOptions(rq))
	if err != nil {
		return nil, err
	}
	if m.pp, err = core.BuildPairPrefixFrom(s1, m.side2, sc.Mattr, pi, workers); err != nil {
		return nil, err
	}
	_, err = core.ExplainPrefixContext(ctx, m.pp, nil, 0, m.params, m.cache)
	return m, err
}

// replay applies one batch to the mirror and re-explains, one span per
// call: the copy-on-write apply, the changed side's rebuild, the prefix
// advance, and the solve through the solution cache.
func (m *deltaMirror) replay(ctx context.Context, rel string, d relation.Delta) (*traced, error) {
	tr := newOpTrace()
	p, err := traceParse(tr, m.rq.Q1, m.rq.Q2, m.rq.Matches)
	if err != nil {
		return nil, err
	}
	if err := tr.do("relation.apply", func() error {
		db1, _, err := m.db1.ApplyDelta(relation.DBDelta{rel: d})
		if err != nil {
			return err
		}
		db1.FreezeDicts()
		m.db1 = db1
		return nil
	}); err != nil {
		return nil, err
	}
	s1, err := traceSide(tr, p.q1, m.db1, p.mattr.LeftAttrs())
	if err != nil {
		return nil, err
	}
	var pp *core.PairPrefix
	if err := tr.do("core.prefix_advance", func() (err error) {
		pp, _, err = m.pp.Advance(s1, m.side2, workers)
		return err
	}); err != nil {
		return nil, err
	}
	m.pp = pp
	return finishTrace(ctx, tr, pp, nil, m.params, m.cache)
}
