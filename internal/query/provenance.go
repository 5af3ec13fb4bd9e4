package query

import (
	"fmt"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// ImpactColumn is the name of the impact attribute appended to provenance
// relations (the I column of P(A1, ..., Ak, I) in Definition 2.3).
const ImpactColumn = "I"

// Provenance is the provenance relation of a query together with the
// query's own answer, ready for canonicalization.
type Provenance struct {
	// Query is the originating SELECT.
	Query *sqlparse.Select
	// Agg is the query's aggregate function (AggNone for non-aggregates).
	Agg sqlparse.AggFunc
	// Rel is P(A1, ..., Ak, I): the tuples of σ_c(X) plus their impact.
	Rel *relation.Relation
	// Result is the query's scalar answer for aggregate queries; for
	// non-aggregate queries it is the row count of the result.
	Result relation.Value
}

// provenanceAggregate finds the query's single aggregate item (nil for
// non-aggregate queries); more than one aggregate is rejected.
func provenanceAggregate(sel *sqlparse.Select) (sqlparse.AggFunc, *sqlparse.SelectItem, error) {
	agg := sqlparse.AggNone
	var aggItem *sqlparse.SelectItem
	for _, it := range sel.Items {
		if it.Agg != sqlparse.AggNone {
			if aggItem != nil {
				return agg, nil, fmt.Errorf("query: provenance extraction supports a single aggregate, got %s", sel.String())
			}
			aggItem = it
			agg = it.Agg
		}
	}
	return agg, aggItem, nil
}

// finishProvenance fills in the query's own answer from res, the query's
// projection of the σ_c(X) its provenance was taken from: the scalar result
// for aggregate queries, the result row count otherwise.
func finishProvenance(prov *Provenance, aggItem *sqlparse.SelectItem, res *relation.Relation) error {
	if aggItem == nil {
		prov.Result = relation.Int(int64(res.Len()))
		return nil
	}
	var err error
	prov.Result, err = scalarResult(res)
	return err
}

// Extract computes the provenance relation of Definition 2.3. Grouped
// queries are rejected: the paper's query class aggregates the full
// selection. For each tuple t in σ_c(X) the impact is Π_o'(t), where o' = 1
// for non-aggregates and COUNT, and the aggregated attribute's value
// otherwise. Tuples whose aggregated expression is NULL contribute nothing
// to the result and are excluded (SQL aggregate semantics).
//
// The compiled engine builds P columnar-ly: the impact expression compiles
// once, contributing rows collect into a selection vector, and P is the
// source's typed columns gathered through it plus the impact column — σ_c(X)
// is never re-boxed into Tuples. The query's own answer projects the same
// σ_c(X), so the scans, joins and subqueries run once.
func Extract(sel *sqlparse.Select, db *relation.Database) (*Provenance, error) {
	if len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("query: provenance extraction does not support GROUP BY queries: %s", sel.String())
	}
	ev := newEvaluator(db)
	src, err := buildSource(ev, sel, db)
	if err != nil {
		return nil, err
	}
	agg, aggItem, err := provenanceAggregate(sel)
	if err != nil {
		return nil, err
	}

	n := src.Len()
	sel32 := make([]int32, 0, n)
	impacts := make([]relation.Value, 0, n)
	if aggItem == nil || aggItem.Star || agg == sqlparse.AggCount && aggItem.Star {
		// Constant impact 1: every source row contributes.
		one := relation.Int(1)
		for i := 0; i < n; i++ {
			sel32 = append(sel32, int32(i))
			impacts = append(impacts, one)
		}
	} else {
		fn, err := ev.compileScalar(aggItem.Expr, src)
		if err != nil {
			return nil, err
		}
		one := relation.Int(1)
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue // contributes nothing to the aggregate
			}
			impact := v
			if agg == sqlparse.AggCount {
				impact = one
			} else if _, ok := v.AsFloat(); !ok {
				return nil, fmt.Errorf("query: impact of %s must be numeric, got %v", aggItem, v)
			}
			sel32 = append(sel32, int32(i))
			impacts = append(impacts, impact)
		}
	}

	sch := src.Schema.Concat(relation.NewSchema(ImpactColumn))
	base := src
	if len(sel32) < n {
		base = src.Gather(sel32)
	}
	p := base.AppendValueColumn("P", sch, impacts)

	res, err := project(ev, sel, src)
	if err != nil {
		return nil, err
	}
	prov := &Provenance{Query: sel, Agg: agg, Rel: p}
	if err := finishProvenance(prov, aggItem, res); err != nil {
		return nil, err
	}
	return prov, nil
}

// TotalImpact sums the impact column; for SUM/COUNT queries this equals the
// query result.
func (p *Provenance) TotalImpact() float64 {
	idx := p.Rel.Schema.MustIndex(ImpactColumn)
	total := 0.0
	for i := 0; i < p.Rel.Len(); i++ {
		if f, ok := p.Rel.At(i, idx).AsFloat(); ok {
			total += f
		}
	}
	return total
}
