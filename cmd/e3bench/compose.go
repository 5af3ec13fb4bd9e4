package main

import (
	"context"
	"encoding/json"
	"strings"
	"sync"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/experiments"
	"explain3d/internal/graph"
	"explain3d/internal/linkage"
	"explain3d/internal/metrics"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// compose.go — the traced composition: the explain pipeline rebuilt from
// the public calls the one-shot path and explaind make, one span per call.
// Its answers must be byte-identical to the untraced path's; every traced
// run checks that.

// parsed is a parsed query pair and its attribute matches.
type parsed struct {
	q1, q2 *sqlparse.Select
	mattr  schemamap.Matching
}

// parseAll parses both queries and the attribute matches.
func parseAll(sql1, sql2, matches string) (parsed, error) {
	var p parsed
	var err error
	if p.q1, err = sqlparse.Parse(sql1); err != nil {
		return p, err
	}
	if p.q2, err = sqlparse.Parse(sql2); err != nil {
		return p, err
	}
	p.mattr, err = schemamap.ParseAll(matches)
	return p, err
}

// traceParse is parseAll as one sqlparse.parse span.
func traceParse(tr *opTrace, sql1, sql2, matches string) (parsed, error) {
	var p parsed
	err := tr.do("sqlparse.parse", func() (err error) {
		p, err = parseAll(sql1, sql2, matches)
		return err
	})
	return p, err
}

// traceSide is core.BuildSide split into its two layers: provenance
// extraction and canonicalization.
func traceSide(tr *opTrace, q *sqlparse.Select, db *relation.Database, attrs []string) (*core.BuiltSide, error) {
	var prov *query.Provenance
	if err := tr.do("query.extract", func() (err error) {
		prov, err = query.Extract(q, db)
		return err
	}); err != nil {
		return nil, err
	}
	var canon *core.Canonical
	if err := tr.do("core.canon", func() (err error) {
		canon, err = core.Canonicalize(prov, attrs)
		return err
	}); err != nil {
		return nil, err
	}
	return &core.BuiltSide{Prov: prov, Canon: canon}, nil
}

// traceSides builds both sides concurrently, as core.BuildStage1 does.
func traceSides(tr *opTrace, p parsed, db1, db2 *relation.Database) (s1, s2 *core.BuiltSide, err error) {
	var err2 error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s2, err2 = traceSide(tr, p.q2, db2, p.mattr.RightAttrs())
	}()
	s1, err = traceSide(tr, p.q1, db1, p.mattr.LeftAttrs())
	wg.Wait()
	if err == nil {
		err = err2
	}
	return s1, s2, err
}

// tracePrefix builds the Stage-1 prefix: the right side's candidate index,
// then the left side's scan against it.
func tracePrefix(tr *opTrace, s1, s2 *core.BuiltSide, mattr schemamap.Matching, popt linkage.PairOptions) (*core.PairPrefix, error) {
	var pi *core.PairIndex
	if err := tr.do("linkage.index_build", func() (err error) {
		pi, err = core.BuildPairIndex(s2.Canon, mattr, popt)
		return err
	}); err != nil {
		return nil, err
	}
	var pp *core.PairPrefix
	err := tr.do("linkage.index_scan", func() (err error) {
		pp, err = core.BuildPairPrefixFrom(s1, s2, mattr, pi, workers)
		return err
	})
	return pp, err
}

// traceBack runs everything after Stage 1, as core.ExplainPrefixContext
// and explaind do: calibrate and filter, solve (through cache when non-nil),
// convert, marshal.
func traceBack(ctx context.Context, tr *opTrace, pp *core.PairPrefix, cal *linkage.Calibrator, params core.Params, cache *core.SolveCache) ([]byte, *core.Result, error) {
	var inst *core.Instance
	tr.do("core.instance", func() error {
		st := &core.Stage1{
			Prov1: pp.Side1.Prov, Prov2: pp.Side2.Prov,
			T1: pp.Side1.Canon, T2: pp.Side2.Canon,
			Mattr: pp.Mattr, RawMatches: pp.Raw,
		}
		inst = st.Instance(cal, 0)
		return nil
	})
	res := &core.Result{Prov1: pp.Side1.Prov, Prov2: pp.Side2.Prov, T1: pp.Side1.Canon, T2: pp.Side2.Canon, Instance: inst}
	if err := tr.do("core.solve", func() error {
		expl, stats, err := core.SolveInstanceCached(ctx, inst, params, cache)
		if err != nil {
			return err
		}
		res.Expl, res.Stats = expl, *stats
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var out *explain3d.Result
	tr.do("explain3d.convert", func() error {
		out = explain3d.ConvertResult(res, true)
		return nil
	})
	var body []byte
	err := tr.do("explain3d.marshal", func() (err error) {
		body, err = json.Marshal(out)
		return err
	})
	return body, res, err
}

// traceDuplicates times the layers that run only inside another call, on
// the same input, after the operation's window closed: the smart
// partitioner inside the solve and the Stage-3 summarizer inside
// ConvertResult. It returns the partition sizes.
func traceDuplicates(tr *opTrace, res *core.Result, params core.Params) ([][]int, error) {
	var parts [][]int
	if params.BatchSize > 0 {
		err := tr.child("graph.partition", "core.solve", func() (err error) {
			inst := res.Instance
			bip := graph.NewBipartite(inst.T1.Len(), inst.T2.Len())
			for _, m := range inst.Matches {
				bip.AddMatch(m.L, m.R, m.P)
			}
			parts, err = graph.SmartPartition(bip, graph.DefaultSmartOptions(params.BatchSize))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	tr.child("summarize.summarize", "explain3d.convert", func() error {
		var wg sync.WaitGroup
		for _, side := range []core.Side{core.Left, core.Right} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				experiments.SummarizeSide(res, res.Expl, side)
			}()
		}
		wg.Wait()
		return nil
	})
	return parts, nil
}

// traced is one traced explain: its answer, spans and work products.
type traced struct {
	body []byte
	tr   *opTrace
	res  *core.Result
	// parts are the smart partitioner's blocks (nil when unpartitioned).
	parts [][]int
	// candidates counts the raw scan output, before calibration and the
	// probability floor.
	candidates int
}

// finishTrace runs the back half on pp, closes the operation's window and
// times the duplicate-call layers.
func finishTrace(ctx context.Context, tr *opTrace, pp *core.PairPrefix, cal *linkage.Calibrator, params core.Params, cache *core.SolveCache) (*traced, error) {
	body, res, err := traceBack(ctx, tr, pp, cal, params, cache)
	if err != nil {
		return nil, err
	}
	tr.finish()
	parts, err := traceDuplicates(tr, res, params)
	if err != nil {
		return nil, err
	}
	return &traced{body: body, tr: tr, res: res, parts: parts, candidates: len(pp.Raw)}, nil
}

// addCounts records the work counts of one traced explain.
func (l layerSamples) addCounts(t *traced) {
	res, parts := t.res, t.parts
	l.add("query.prov_rows", float64(res.Prov1.Rel.Len()+res.Prov2.Rel.Len()))
	l.add("linkage.candidates", float64(t.candidates))
	l.add("linkage.kept_ratio", ratio(float64(len(res.Instance.Matches)), float64(t.candidates)))
	st := res.Stats
	l.add("graph.partitions", float64(st.Partitions))
	largest := 0
	for _, p := range parts {
		largest = max(largest, len(p))
	}
	if parts == nil {
		largest = res.T1.Len() + res.T2.Len() // unpartitioned: one block
	}
	l.add("graph.max_part_tuples", float64(largest))
	l.add("milp.vars", float64(st.MILPVars))
	l.add("milp.rows", float64(st.MILPRows))
	l.add("milp.nodes", float64(st.Nodes))
	l.add("milp.iters", float64(st.Iters))
	l.add("milp.refactors", float64(st.Refactors))
	l.add("milp.dense_blocks", float64(st.DenseBlocks))
	l.add("milp.sparse_blocks", float64(st.SparseBlocks))
}

// matchText renders attribute matches in the syntax schemamap.ParseAll
// reads, one per line.
func matchText(m schemamap.Matching) string {
	parts := make([]string, len(m))
	for i, am := range m {
		parts[i] = am.String()
	}
	return strings.Join(parts, "\n")
}

// scoreF1 scores a result's explanations and evidence against the gold
// standard derived from the generators' hidden entity ids.
func scoreF1(res *core.Result, eid1, eid2 string) (expl, evidence float64, err error) {
	gold, err := experiments.GoldFromEIDs(res.Instance, res.Prov1, res.Prov2, eid1, eid2)
	if err != nil {
		return 0, 0, err
	}
	e := metrics.Score(experiments.NormalizeExplKeys(res.Expl, gold.Evidence), experiments.NormalizeExplKeys(gold, gold.Evidence))
	v := metrics.Score(res.Expl.EvidenceKeys(), gold.EvidenceKeys())
	return e.F1, v.F1, nil
}
