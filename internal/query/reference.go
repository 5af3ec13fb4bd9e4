package query

import (
	"fmt"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// This file preserves the row-at-a-time evaluator the compiled engine
// replaced (the same role SimilaritiesPairwise plays for the linkage
// stage): every operator materializes Tuples, resolves column references
// by string per row, and hashes join / DISTINCT / GROUP BY keys through
// Tuple.Key strings. It is the ground truth the equivalence property tests
// compare the compiled, selection-vector engine against, and the baseline
// the query benchmarks measure speedups over.

// RunReference evaluates a SELECT with the row-at-a-time reference engine.
// Production callers use Run; this exists for differential testing.
func RunReference(sel *sqlparse.Select, db *relation.Database) (*relation.Relation, error) {
	ev := newReferenceEvaluator(db)
	src, err := refBuildSource(ev, sel, db)
	if err != nil {
		return nil, err
	}
	return refProject(ev, sel, src)
}

// ExtractReference computes the provenance relation of Definition 2.3, and
// the query's answer, with the reference engine; see Extract.
func ExtractReference(sel *sqlparse.Select, db *relation.Database) (*Provenance, error) {
	if len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("query: provenance extraction does not support GROUP BY queries: %s", sel.String())
	}
	ev := newReferenceEvaluator(db)
	src, err := refBuildSource(ev, sel, db)
	if err != nil {
		return nil, err
	}
	agg, aggItem, err := provenanceAggregate(sel)
	if err != nil {
		return nil, err
	}

	p := relation.NewFromSchema("P", src.Schema.Concat(relation.NewSchema(ImpactColumn)), src.Dict())
	var row relation.Tuple
	rec := make(relation.Tuple, src.Schema.Len()+1)
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		var impact relation.Value
		switch {
		case aggItem == nil, aggItem.Star, agg == sqlparse.AggCount && aggItem.Star:
			impact = relation.Int(1)
		default:
			v, err := ev.evalScalar(aggItem.Expr, src.Schema, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue // contributes nothing to the aggregate
			}
			if agg == sqlparse.AggCount {
				impact = relation.Int(1)
			} else {
				if _, ok := v.AsFloat(); !ok {
					return nil, fmt.Errorf("query: impact of %s must be numeric, got %v", aggItem, v)
				}
				impact = v
			}
		}
		rec = rec[:0]
		rec = append(rec, row...)
		rec = append(rec, impact)
		p.AppendRow(rec)
	}

	res, err := refProject(ev, sel, src)
	if err != nil {
		return nil, err
	}
	prov := &Provenance{Query: sel, Agg: agg, Rel: p}
	if err := finishProvenance(prov, aggItem, res); err != nil {
		return nil, err
	}
	return prov, nil
}

// refBuildSource materializes σ_c(X) with row-at-a-time filters and joins.
func refBuildSource(ev *evaluator, sel *sqlparse.Select, db *relation.Database) (*relation.Relation, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("query: empty FROM clause")
	}
	pending := splitConjuncts(sel.Where)
	applied := make([]bool, len(pending))

	cur, err := refLoadRef(ev, sel.From[0], db)
	if err != nil {
		return nil, err
	}
	if cur, err = refApplyResolvable(ev, cur, pending, applied); err != nil {
		return nil, err
	}

	for _, ref := range sel.From[1:] {
		next, err := refLoadRef(ev, ref, db)
		if err != nil {
			return nil, err
		}
		if next, err = refApplyResolvable(ev, next, pending, applied); err != nil {
			return nil, err
		}
		joined := cur.Schema.Concat(next.Schema)
		var conds []sqlparse.Expr
		conds = append(conds, splitConjuncts(ref.On)...)
		for i, c := range pending {
			if applied[i] {
				continue
			}
			if !resolvable(c, cur.Schema) && !resolvable(c, next.Schema) && resolvable(c, joined) {
				conds = append(conds, c)
				applied[i] = true
			}
		}
		cur, err = refJoin(ev, cur, next, conds)
		if err != nil {
			return nil, err
		}
		if cur, err = refApplyResolvable(ev, cur, pending, applied); err != nil {
			return nil, err
		}
	}
	for i, c := range pending {
		if !applied[i] {
			return nil, fmt.Errorf("query: WHERE conjunct %s references unknown columns (schema %s)", c.String(), cur.Schema)
		}
	}
	return cur, nil
}

func refApplyResolvable(ev *evaluator, cur *relation.Relation, pending []sqlparse.Expr, applied []bool) (*relation.Relation, error) {
	for i, c := range pending {
		if applied[i] || !resolvable(c, cur.Schema) {
			continue
		}
		filtered, err := refFilter(ev, cur, c)
		if err != nil {
			return nil, err
		}
		cur = filtered
		applied[i] = true
	}
	return cur, nil
}

func refLoadRef(ev *evaluator, ref *sqlparse.TableRef, db *relation.Database) (*relation.Relation, error) {
	var rel *relation.Relation
	if ref.Sub != nil {
		sub, err := RunReference(ref.Sub, db)
		if err != nil {
			return nil, err
		}
		rel = sub
	} else {
		base, err := db.Relation(ref.Table)
		if err != nil {
			return nil, err
		}
		rel = base
	}
	return rel.WithSchema(ref.Alias, rel.Schema.WithQualifier(ref.Alias)), nil
}

func refFilter(ev *evaluator, r *relation.Relation, pred sqlparse.Expr) (*relation.Relation, error) {
	var keep []int
	var buf relation.Tuple
	for i := 0; i < r.Len(); i++ {
		buf = r.RowInto(buf, i)
		ok, err := ev.evalPred(pred, r.Schema, buf)
		if err != nil {
			return nil, err
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return r.Select(keep), nil
}

// refJoin combines two relations row-at-a-time: right-side tuples are
// materialized and indexed by Tuple.Key strings, candidate pairs are boxed
// into combined Tuples and appended cell by cell.
func refJoin(ev *evaluator, left, right *relation.Relation, conds []sqlparse.Expr) (*relation.Relation, error) {
	out := relation.NewFromSchema(left.Name+"⋈"+right.Name, left.Schema.Concat(right.Schema), left.Dict())
	var hashL, hashR []int
	var rest []sqlparse.Expr
	for _, c := range conds {
		li, ri, ok := equiJoinCols(c, left.Schema, right.Schema)
		if ok {
			hashL = append(hashL, li)
			hashR = append(hashR, ri)
		} else {
			rest = append(rest, c)
		}
	}
	combined := func(l, r relation.Tuple) relation.Tuple {
		row := make(relation.Tuple, 0, len(l)+len(r))
		row = append(row, l...)
		row = append(row, r...)
		return row
	}
	emit := func(l, r relation.Tuple) (bool, error) {
		row := combined(l, r)
		for _, c := range rest {
			ok, err := ev.evalPred(c, out.Schema, row)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		out.AppendRow(row)
		return true, nil
	}
	rightRows := right.Tuples()
	var l relation.Tuple
	if len(hashL) > 0 {
		// Hash join on the equality columns; NULL keys never match.
		index := make(map[string][]relation.Tuple, len(rightRows))
		for _, r := range rightRows {
			if hasNull(r, hashR) {
				continue
			}
			k := r.Key(hashR)
			index[k] = append(index[k], r)
		}
		for i := 0; i < left.Len(); i++ {
			l = left.RowInto(l, i)
			if hasNull(l, hashL) {
				continue
			}
			for _, r := range index[l.Key(hashL)] {
				if _, err := emit(l, r); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	// Cross product fallback.
	for i := 0; i < left.Len(); i++ {
		l = left.RowInto(l, i)
		for _, r := range rightRows {
			if _, err := emit(l, r); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func hasNull(row relation.Tuple, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

func refProject(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	hasAgg := false
	for _, it := range sel.Items {
		if it.Agg != sqlparse.AggNone {
			hasAgg = true
		}
	}
	if len(sel.GroupBy) > 0 {
		return refGroupProject(ev, sel, src)
	}
	if hasAgg {
		return refAggregateProject(ev, sel, src)
	}
	return refPlainProject(ev, sel, src)
}

func refPlainProject(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	names := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		names[i] = itemName(it, i)
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	seen := make(map[string]bool)
	keyIdx := make([]int, len(sel.Items))
	for i := range keyIdx {
		keyIdx[i] = i
	}
	var row relation.Tuple
	rec := make(relation.Tuple, len(sel.Items))
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		for i, it := range sel.Items {
			v, err := ev.evalScalar(it.Expr, src.Schema, row)
			if err != nil {
				return nil, err
			}
			rec[i] = v
		}
		if sel.Distinct {
			k := rec.Key(keyIdx)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out.AppendRow(rec)
	}
	return out, nil
}

func refAggregateProject(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	names := make([]string, len(sel.Items))
	states := make([]*aggState, len(sel.Items))
	for i, it := range sel.Items {
		if it.Agg == sqlparse.AggNone {
			return nil, fmt.Errorf("query: mixing aggregates and plain columns requires GROUP BY: %s", it)
		}
		names[i] = itemName(it, i)
		states[i] = newAggState(it.Agg)
	}
	var row relation.Tuple
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		for i, it := range sel.Items {
			var v relation.Value
			if it.Star {
				v = relation.Int(1)
			} else {
				var err error
				v, err = ev.evalScalar(it.Expr, src.Schema, row)
				if err != nil {
					return nil, err
				}
			}
			if err := states[i].add(v); err != nil {
				return nil, err
			}
		}
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	rec := make(relation.Tuple, len(states))
	for i, st := range states {
		rec[i] = st.result()
	}
	out.AppendRow(rec)
	return out, nil
}

func refGroupProject(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	gIdx, err := groupIndexes(sel, src)
	if err != nil {
		return nil, err
	}
	type group struct {
		first  relation.Tuple
		states []*aggState
	}
	groups := make(map[string]*group)
	var order []string
	var row relation.Tuple
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		k := row.Key(gIdx)
		g, ok := groups[k]
		if !ok {
			// Only each group's first row is retained — clone it out of the
			// reused buffer.
			g = &group{first: row.Clone(), states: make([]*aggState, len(sel.Items))}
			for i, it := range sel.Items {
				if it.Agg != sqlparse.AggNone {
					g.states[i] = newAggState(it.Agg)
				}
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, it := range sel.Items {
			if it.Agg == sqlparse.AggNone {
				continue
			}
			var v relation.Value
			if it.Star {
				v = relation.Int(1)
			} else {
				var err error
				v, err = ev.evalScalar(it.Expr, src.Schema, row)
				if err != nil {
					return nil, err
				}
			}
			if err := g.states[i].add(v); err != nil {
				return nil, err
			}
		}
	}
	names := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		names[i] = itemName(it, i)
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	rec := make(relation.Tuple, len(sel.Items))
	for _, k := range order {
		g := groups[k]
		for i, it := range sel.Items {
			if it.Agg != sqlparse.AggNone {
				rec[i] = g.states[i].result()
				continue
			}
			v, err := ev.evalScalar(it.Expr, src.Schema, g.first)
			if err != nil {
				return nil, err
			}
			rec[i] = v
		}
		out.AppendRow(rec)
	}
	return out, nil
}

// aggState accumulates one aggregate for the reference engine, one boxed
// Value at a time; groupAgg replicates its semantics on typed arrays.
type aggState struct {
	fn    sqlparse.AggFunc
	count int64
	sum   float64
	best  relation.Value
	isInt bool
	init  bool
}

func newAggState(fn sqlparse.AggFunc) *aggState { return &aggState{fn: fn, isInt: true} }

func (a *aggState) add(v relation.Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	switch a.fn {
	case sqlparse.AggCount:
		return nil
	case sqlparse.AggSum, sqlparse.AggAvg:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("query: %s over non-numeric value %v", a.fn, v)
		}
		if v.Kind() != relation.KindInt {
			a.isInt = false
		}
		a.sum += f
		return nil
	case sqlparse.AggMax, sqlparse.AggMin:
		if !a.init {
			a.best = v
			a.init = true
			return nil
		}
		c, ok := v.Compare(a.best)
		if !ok {
			return fmt.Errorf("query: %s over incomparable values %v and %v", a.fn, v, a.best)
		}
		if (a.fn == sqlparse.AggMax && c > 0) || (a.fn == sqlparse.AggMin && c < 0) {
			a.best = v
		}
		return nil
	}
	return fmt.Errorf("query: unknown aggregate %v", a.fn)
}

func (a *aggState) result() relation.Value {
	switch a.fn {
	case sqlparse.AggCount:
		return relation.Int(a.count)
	case sqlparse.AggSum:
		if a.count == 0 {
			return relation.Null()
		}
		if a.isInt {
			return relation.Int(int64(a.sum))
		}
		return relation.Float(a.sum)
	case sqlparse.AggAvg:
		if a.count == 0 {
			return relation.Null()
		}
		return relation.Float(a.sum / float64(a.count))
	case sqlparse.AggMax, sqlparse.AggMin:
		if !a.init {
			return relation.Null()
		}
		return a.best
	}
	return relation.Null()
}
