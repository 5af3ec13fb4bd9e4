package core

import (
	"fmt"
	"math"
	"strings"

	"explain3d/internal/query"
	"explain3d/internal/relation"
)

// refCanonical is a reference canonical relation with its display keys
// and source rows stored eagerly.
type refCanonical struct {
	*Canonical
	keys       []string
	sourceRows [][]int
}

// refCanonicalize is the Canonicalize that grouped on its own
// map[uint64][]int32 and built the canonical relation row by row
// (AppendRow per new group, Rel.Set per repeat row), kept verbatim as the
// reference the gather-based Canonicalize must reproduce cell for cell. It
// keeps the eager display keys and per-tuple source-row slices the
// Canonical once stored, which Key and Rows must reproduce.
func refCanonicalize(p *query.Provenance, attrs []string) (*refCanonical, error) {
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

	cols := make([]string, 0, len(attrs)+1)
	for _, a := range attrs {
		cols = append(cols, a)
	}
	cols = append(cols, query.ImpactColumn)
	// The canonical relation shares the provenance relation's dictionary:
	// matching-attribute strings keep their codes, so no re-interning.
	out := &refCanonical{Canonical: &Canonical{Rel: relation.NewWithDict(p.Rel.Dict(), "T", cols...)}}
	for i := range attrs {
		out.MatchIdx = append(out.MatchIdx, i)
	}

	// Grouping keys on packed (kind, code/bits) cell keys extracted once per
	// matching-attribute column — no canonical key strings, no Tuple
	// materialization. Display Keys render from the row values exactly as
	// before.
	strict := strictAggregate(p.Agg)
	keys := make([][]relation.CellKey, len(idx))
	for c, j := range idx {
		keys[c] = p.Rel.ColumnCellKeys(nil, j, p.Rel.Dict())
	}
	accs := make([]func(int) relation.Value, len(idx))
	for c, j := range idx {
		accs[c] = p.Rel.Accessor(j)
	}
	impactAcc := p.Rel.Accessor(impactIdx)
	// buckets maps a key hash to group ids; candidates verify their packed
	// keys exactly against the group's first source row.
	var buckets map[uint64][]int32
	if !strict {
		hint := p.Rel.Len()
		if hint > 256 {
			hint = 256 // canonical groups are usually far fewer than rows
		}
		buckets = make(map[uint64][]int32, hint)
	}
	var firstRows []int32
	rec := make(relation.Tuple, 0, len(idx)+1)
	for rowID := 0; rowID < p.Rel.Len(); rowID++ {
		iv := impactAcc(rowID)
		impact, ok := iv.AsFloat()
		if !ok {
			return nil, fmt.Errorf("core: non-numeric impact %v in provenance row %d", iv, rowID)
		}
		// A NaN or infinite impact (a "NaN"/"Inf" cell, or a string that
		// parses to one) would reach the solver as a non-finite coefficient.
		if math.IsNaN(impact) || math.IsInf(impact, 0) {
			return nil, fmt.Errorf("core: non-finite impact %v in provenance row %d", impact, rowID)
		}
		gi := -1
		var h uint64
		if !strict {
			// Strict aggregates keep every provenance tuple distinct and
			// skip the map entirely.
			h = relation.HashRow(keys, rowID)
			for _, cand := range buckets[h] {
				if relation.RowKeysEqual(keys, rowID, keys, int(firstRows[cand])) {
					gi = int(cand)
					break
				}
			}
		}
		if gi < 0 {
			gi = out.Len()
			if !strict {
				buckets[h] = append(buckets[h], int32(gi))
			}
			firstRows = append(firstRows, int32(rowID))
			rec = rec[:0]
			var keyParts []string
			for c := range idx {
				v := accs[c](rowID)
				rec = append(rec, v)
				keyParts = append(keyParts, v.String())
			}
			rec = append(rec, relation.Float(impact))
			out.Rel.AppendRow(rec)
			out.Impacts = append(out.Impacts, impact)
			out.keys = append(out.keys, strings.Join(keyParts, " / "))
			out.sourceRows = append(out.sourceRows, []int{rowID})
			continue
		}
		out.Impacts[gi] += impact
		if math.IsInf(out.Impacts[gi], 0) {
			return nil, fmt.Errorf("core: canonical impact sum overflows to %v at provenance row %d", out.Impacts[gi], rowID)
		}
		out.Rel.Set(gi, len(idx), relation.Float(out.Impacts[gi]))
		out.sourceRows[gi] = append(out.sourceRows[gi], rowID)
	}
	return out, nil
}
