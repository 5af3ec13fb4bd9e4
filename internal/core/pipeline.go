package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"explain3d/internal/linkage"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// Input bundles everything explain3d needs: two databases, two
// semantically similar queries, and the attribute matches between them.
type Input struct {
	DB1, DB2 *relation.Database
	Q1, Q2   *sqlparse.Select
	Mattr    schemamap.Matching
	// Calibrator optionally converts similarities to probabilities
	// (Section 5.1.2); nil treats similarity as probability. Together with
	// MinProb it sets the lowest similarity the one-shot Stage-1 scan
	// scores (Calibrator.SimFloor).
	Calibrator *linkage.Calibrator
	// MinProb drops initial matches below this probability (default 0.02).
	// BuildInstance and Explain push it into the Stage-1 scan as a MinSim
	// floor, so pairs it would drop are never scored; BuildStage1 keeps
	// every pair above PairOpts.MinSim for later calibration.
	MinProb float64
	// PairOpts overrides the candidate-generation options for stage 1
	// (nil uses linkage.DefaultPairOptions).
	PairOpts *linkage.PairOptions
	// Workers parallelizes Stage 1: the two queries' provenances are
	// extracted and canonicalized concurrently, and candidate scoring in
	// the initial mapping is split across this many goroutines (0 defaults
	// to runtime.GOMAXPROCS(0); results are identical at any count).
	Workers int
}

// Result is the full framework output.
type Result struct {
	Prov1, Prov2 *query.Provenance
	T1, T2       *Canonical
	Instance     *Instance
	Expl         *Explanations
	Stats        Stats
}

// Explain runs the 3-stage framework end to end (Stage 3 summarization is
// exposed separately via the summarize package, as the paper delegates it
// to existing tools).
//
//lint:ctxroot public entry point without a ctx parameter: compatibility wrapper around ExplainContext
func Explain(in Input, p Params) (*Result, error) {
	return ExplainContext(context.Background(), in, p)
}

// ExplainContext is Explain bounded by a caller context: cancelling ctx
// aborts the Stage-2 solve cooperatively, returning the incumbent
// explanations with Stats.TimedOut set (the same graceful degradation as
// an expired solver budget) rather than an error.
func ExplainContext(ctx context.Context, in Input, p Params) (*Result, error) {
	if !in.Mattr.Comparable() {
		return nil, fmt.Errorf("core: queries are not comparable (no attribute matches)")
	}
	// Validate up front: Stage 1 dominates runtime, so a bad parameter
	// must fail before it, not after (SolveInstance re-validates cheaply).
	if err := p.withDefaults().validate(); err != nil {
		return nil, err
	}
	if in.Workers == 0 {
		in.Workers = p.Workers // one knob parallelizes both stages
	}
	inst, res, err := BuildInstance(in)
	if err != nil {
		return nil, err
	}
	expl, stats, err := SolveInstanceContext(ctx, inst, p)
	if err != nil {
		return nil, err
	}
	res.Expl = expl
	res.Stats = *stats
	return res, nil
}

// BuildInstance runs Stage 1: extract provenance, canonicalize, and derive
// the initial tuple mapping. The two queries' extraction/canonicalization
// chains are independent and run concurrently (the paper reports Stage 1
// dominates total runtime). It composes the Stage-1 prefix (BuildStage1)
// with the calibration/filter step (Stage1.Instance), scanning at MinSim
// raised to the calibrated floor Calibrator.SimFloor(MinProb): a pair
// scored below it would only be dropped by the filter, so the matches are
// the same as the composition at the unraised MinSim. Servers cache the
// raw prefix, which serves any calibrator and MinProb, and call those two
// directly.
func BuildInstance(in Input) (*Instance, *Result, error) {
	minProb := resolveMinProb(in.MinProb)
	popt := linkage.DefaultPairOptions()
	if in.PairOpts != nil {
		popt = *in.PairOpts
	}
	popt.MinSim = max(popt.MinSim, in.Calibrator.SimFloor(minProb))
	in.PairOpts = &popt
	s, err := BuildStage1(in)
	if err != nil {
		return nil, nil, err
	}
	inst := s.Instance(in.Calibrator, minProb)
	res := &Result{Prov1: s.Prov1, Prov2: s.Prov2, T1: s.T1, T2: s.T2, Instance: inst}
	return inst, res, nil
}

// comparisonColumns returns the relation and column indexes Stage 1
// compares on one side, one column per attribute match. When every match
// covers a single attribute on each side, they are the canonical
// relation's own columns, tokenized in place; otherwise they are a
// virtual relation of comparison columns (VirtualColumns).
func comparisonColumns(c *Canonical, mattr schemamap.Matching, left bool) (*relation.Relation, []int, error) {
	idx := make([]int, len(mattr))
	if slices.ContainsFunc(mattr, func(am schemamap.AttributeMatch) bool {
		return len(am.Left) != 1 || len(am.Right) != 1
	}) {
		for i := range idx {
			idx[i] = i
		}
		v, err := VirtualColumns(c, mattr, left)
		return v, idx, err
	}
	cols, err := matchColumns(c, mattr, left)
	if err != nil {
		return nil, nil, err
	}
	for i, cs := range cols {
		idx[i] = cs[0]
	}
	return c.Rel, idx, nil
}

// matchColumns resolves one side's attributes of each attribute match to
// column indexes of the canonical relation, in match order.
func matchColumns(c *Canonical, mattr schemamap.Matching, left bool) ([][]int, error) {
	cols := make([][]int, len(mattr))
	for i, am := range mattr {
		attrs := am.Right
		if left {
			attrs = am.Left
		}
		for _, a := range attrs {
			j, err := c.Rel.Schema.Index(a)
			if err != nil {
				return nil, fmt.Errorf("core: attribute match references %q missing from canonical relation: %w", a, err)
			}
			cols[i] = append(cols[i], j)
		}
	}
	return cols, nil
}

// VirtualColumns builds one comparison column per attribute match: the
// side's attribute value (preserving numerics) or the concatenation when
// the match covers several attributes. Its strings intern into a fresh
// dictionary of its own, never the database's append-only one, which
// would keep every concatenated string alive for the dataset's lifetime.
// Baselines (R-Swoosh) score the same columns the initial mapping uses.
func VirtualColumns(c *Canonical, mattr schemamap.Matching, left bool) (*relation.Relation, error) {
	colIdx, err := matchColumns(c, mattr, left)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(mattr))
	for i := range mattr {
		names[i] = fmt.Sprintf("m%d", i)
	}
	out := relation.New("", names...)
	var row relation.Tuple
	rec := make(relation.Tuple, len(mattr))
	for r := 0; r < c.Rel.Len(); r++ {
		row = c.Rel.RowInto(row, r)
		for i, cols := range colIdx {
			if len(cols) == 1 {
				rec[i] = row[cols[0]]
				continue
			}
			parts := make([]string, 0, len(cols))
			for _, j := range cols {
				if !row[j].IsNull() {
					parts = append(parts, row[j].String())
				}
			}
			rec[i] = relation.String(strings.Join(parts, " "))
		}
		out.AppendRow(rec)
	}
	return out, nil
}

// Describe renders an explanation in terms of canonical tuple keys, for
// CLI and example output.
func (r *Result) Describe(e *Explanations) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Result of Q1: %v  |  Result of Q2: %v\n", r.Prov1.Result, r.Prov2.Result)
	fmt.Fprintf(&b, "Provenance-based explanations (%d):\n", len(e.Prov))
	for _, pe := range e.Prov {
		key := r.T1.Keys
		impacts := r.T1.Impacts
		if pe.Side == Right {
			key = r.T2.Keys
			impacts = r.T2.Impacts
		}
		fmt.Fprintf(&b, "  [%s] %s (impact %v) has no counterpart\n", pe.Side, key[pe.Tuple], impacts[pe.Tuple])
	}
	fmt.Fprintf(&b, "Value-based explanations (%d):\n", len(e.Val))
	for _, ve := range e.Val {
		key := r.T1.Keys
		impacts := r.T1.Impacts
		if ve.Side == Right {
			key = r.T2.Keys
			impacts = r.T2.Impacts
		}
		fmt.Fprintf(&b, "  [%s] %s: impact %v ↦ %v\n", ve.Side, key[ve.Tuple], impacts[ve.Tuple], ve.NewImpact)
	}
	fmt.Fprintf(&b, "Evidence mapping (%d matches):\n", len(e.Evidence))
	for _, ev := range e.Evidence {
		fmt.Fprintf(&b, "  %s ↔ %s (p=%.2f)\n", r.T1.Keys[ev.L], r.T2.Keys[ev.R], ev.P)
	}
	return b.String()
}
