package core

import (
	"fmt"
	"math"
	"strings"

	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// Canonical is a canonical relation T (Definition 3.1): provenance tuples
// grouped by the matching attributes with impacts summed. Queries with
// AVG/MAX/MIN aggregation skip grouping because they require a strict
// one-to-one mapping.
type Canonical struct {
	// Rel holds one row per canonical tuple: the matching attributes
	// followed by the summed impact column I.
	Rel *relation.Relation
	// Impacts caches the impact column as floats.
	Impacts []float64
	// Keys are display identifiers (the matching-attribute values joined).
	Keys []string
	// SourceRows lists, per canonical tuple, the provenance row indexes it
	// consolidates.
	SourceRows [][]int
	// MatchIdx are the column indexes of the matching attributes in Rel.
	MatchIdx []int
}

// Len returns the number of canonical tuples.
func (c *Canonical) Len() int { return len(c.Impacts) }

// TotalImpact sums all impacts.
func (c *Canonical) TotalImpact() float64 {
	t := 0.0
	for _, i := range c.Impacts {
		t += i
	}
	return t
}

// strictAggregate reports whether the aggregate demands a one-to-one
// mapping (no consolidation).
func strictAggregate(agg sqlparse.AggFunc) bool {
	switch agg {
	case sqlparse.AggAvg, sqlparse.AggMax, sqlparse.AggMin:
		return true
	default:
		return false
	}
}

// Canonicalize derives the canonical relation of a provenance relation
// over the given matching attributes (T = π_{A,I}(γ_{A, SUM(I)}(P))).
// Rows group on their packed matching-attribute cell keys in the query
// engine's key table; each group's first row represents it, so Rel is the
// matching columns gathered at those rows plus the summed impact column.
func Canonicalize(p *query.Provenance, attrs []string) (*Canonical, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: canonicalization requires at least one matching attribute (queries not comparable)")
	}
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j, err := p.Rel.Schema.Index(a)
		if err != nil {
			return nil, fmt.Errorf("core: matching attribute %q not in provenance: %w", a, err)
		}
		idx[i] = j
	}
	impactIdx, err := p.Rel.Schema.Index(query.ImpactColumn)
	if err != nil {
		return nil, fmt.Errorf("core: provenance relation lacks impact column: %w", err)
	}

	keys := make([][]relation.CellKey, len(idx))
	for c, j := range idx {
		keys[c] = p.Rel.ColumnCellKeys(nil, j, p.Rel.Dict())
	}
	// Strict aggregates keep every provenance tuple distinct.
	strict := strictAggregate(p.Agg)
	groups := relation.NewGroupTable(p.Rel.Len())
	impactAcc := p.Rel.Accessor(impactIdx)
	out := &Canonical{}
	var firstRows []int32
	gid := make([]int32, p.Rel.Len())
	for row := range gid {
		iv := impactAcc(row)
		impact, ok := iv.AsFloat()
		if !ok {
			return nil, fmt.Errorf("core: non-numeric impact %v in provenance row %d", iv, row)
		}
		// A NaN or infinite impact (a "NaN"/"Inf" cell, or a string that
		// parses to one) would reach the solver as a non-finite coefficient.
		if math.IsNaN(impact) || math.IsInf(impact, 0) {
			return nil, fmt.Errorf("core: non-finite impact %v in provenance row %d", impact, row)
		}
		g, fresh := int32(row), true
		if !strict {
			g, fresh = groups.At(keys, row)
		}
		gid[row] = g
		if fresh {
			firstRows = append(firstRows, int32(row))
			out.Impacts = append(out.Impacts, impact)
			continue
		}
		out.Impacts[g] += impact
		if math.IsInf(out.Impacts[g], 0) {
			return nil, fmt.Errorf("core: canonical impact sum overflows to %v at provenance row %d", out.Impacts[g], row)
		}
	}

	// The canonical relation shares the provenance relation's dictionary:
	// matching-attribute strings keep their codes, so no re-interning. Its
	// schema is the one NewWithDict gives relation "T" (bare names
	// qualified as T.name).
	cols := append(append([]string(nil), attrs...), query.ImpactColumn)
	sch := relation.NewWithDict(p.Rel.Dict(), "T", cols...).Schema
	match := &relation.Schema{Columns: sch.Columns[:len(attrs)]}
	impacts := make([]relation.Value, len(out.Impacts))
	for g, v := range out.Impacts {
		impacts[g] = relation.Float(v)
	}
	out.Rel = p.Rel.ProjectColumns("T", match, idx).Gather(firstRows).AppendValueColumn("T", sch, impacts)
	for i := range attrs {
		out.MatchIdx = append(out.MatchIdx, i)
	}

	// Display keys render from the gathered matching columns.
	accs := make([]func(int) relation.Value, len(attrs))
	for c := range accs {
		accs[c] = out.Rel.Accessor(c)
	}
	parts := make([]string, len(attrs))
	out.Keys = make([]string, len(firstRows))
	for g := range out.Keys {
		for c, acc := range accs {
			parts[c] = acc(g).String()
		}
		out.Keys[g] = strings.Join(parts, " / ")
	}

	// SourceRows carve one backing array, group by group in row order.
	start := make([]int, len(firstRows)+1)
	for _, g := range gid {
		start[g+1]++
	}
	for g := range firstRows {
		start[g+1] += start[g]
	}
	backing := make([]int, len(gid))
	out.SourceRows = make([][]int, len(firstRows))
	for g := range out.SourceRows {
		out.SourceRows[g] = backing[start[g]:start[g]:start[g+1]]
	}
	for row, g := range gid {
		out.SourceRows[g] = append(out.SourceRows[g], row)
	}
	return out, nil
}
