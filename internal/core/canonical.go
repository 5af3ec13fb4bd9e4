package core

import (
	"fmt"
	"math"

	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// Canonical is a canonical relation T (Definition 3.1): provenance tuples
// grouped by the matching attributes with impacts summed. Queries with
// AVG/MAX/MIN aggregation skip grouping because they require a strict
// one-to-one mapping. Display keys are not stored: KeyWriter renders them
// on demand from Rel's matching columns.
type Canonical struct {
	// Rel holds one row per canonical tuple: the matching attributes
	// followed by the summed impact column I.
	Rel *relation.Relation
	// Impacts caches the impact column as floats.
	Impacts []float64
	// MatchIdx are the column indexes of the matching attributes in Rel.
	MatchIdx []int
	// srcStart and srcRows hold the source rows in CSR form: tuple g
	// consolidates provenance rows srcRows[srcStart[g]:srcStart[g+1]].
	srcStart, srcRows []int32
}

// Len returns the number of canonical tuples.
func (c *Canonical) Len() int { return len(c.Impacts) }

// Rows returns the provenance row indexes canonical tuple g consolidates,
// in row order. The slice aliases the canonical relation's storage.
//
//lint:view
func (c *Canonical) Rows(g int) []int32 {
	return c.srcRows[c.srcStart[g]:c.srcStart[g+1]:c.srcStart[g+1]]
}

// KeyWriter binds the matching columns' accessors once, for rendering many
// display keys.
func (c *Canonical) KeyWriter() KeyWriter {
	kw := KeyWriter{accs: make([]func(int) relation.Value, len(c.MatchIdx))}
	for i, j := range c.MatchIdx {
		kw.accs[i] = c.Rel.Accessor(j)
	}
	return kw
}

// KeyWriter renders a canonical relation's display keys straight from its
// gathered matching columns.
type KeyWriter struct {
	accs []func(int) relation.Value
}

// Key renders tuple g's display key. A one-column key is the cell's own
// String, so a string cell's key shares the dictionary's string.
func (kw KeyWriter) Key(g int) string {
	if len(kw.accs) == 1 {
		return kw.accs[0](g).String()
	}
	return string(kw.AppendKey(nil, g))
}

// AppendKey appends tuple g's display key to dst.
func (kw KeyWriter) AppendKey(dst []byte, g int) []byte {
	for i, acc := range kw.accs {
		if i > 0 {
			dst = append(dst, " / "...)
		}
		dst = acc(g).AppendString(dst)
	}
	return dst
}

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

	// The source rows land group by group, in row order, by counting sort.
	out.srcStart = make([]int32, len(firstRows)+1)
	for _, g := range gid {
		out.srcStart[g+1]++
	}
	for g := range firstRows {
		out.srcStart[g+1] += out.srcStart[g]
	}
	out.srcRows = make([]int32, len(gid))
	next := append([]int32(nil), out.srcStart[:len(firstRows)]...)
	for row, g := range gid {
		out.srcRows[next[g]] = int32(row)
		next[g]++
	}
	return out, nil
}
