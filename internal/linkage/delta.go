package linkage

import (
	"fmt"
	"slices"

	"explain3d/internal/relation"
)

// delta.go — incremental maintenance of the inverted candidate index.
//
// ApplyDelta advances a prebuilt Index across a right-side row delta without
// re-tokenizing or re-indexing unchanged rows: surviving rows' token lists
// and blocking unions are remapped (sharing the per-row slices), only dirty
// rows are tokenized, and posting lists are rewritten per token — shared
// wholesale when the delta is append-only, remapped and merged otherwise.
// The joint token space is shared with the source index (it is append-only
// and mutex-guarded), so scans against old and new generations can run
// concurrently.
//
// The scan's candidate output is a pure per-pair function of row content —
// invariant to token-id relabeling and to which stop-word lists are pruned
// (borderline candidates verify exact shared counts) — so a scan against the
// advanced index is byte-identical to one against BuildIndex on the new
// relation. The differential tests in delta_test.go enforce exactly that.

// RowDelta describes how the right-side rows moved under a delta, in the
// index's coordinates: RowMap maps every old row to its new position when
// its matched-column content is unchanged, or -1 when the row was deleted or
// its content changed; Dirty lists (ascending) every new row not covered by
// RowMap — appended rows and the new positions of changed ones. Together
// they must cover all NewRows positions exactly once.
type RowDelta struct {
	RowMap  []int
	Dirty   []int
	NewRows int
}

// IndexDeltaStats reports what ApplyDelta had to do.
type IndexDeltaStats struct {
	// Rebuilt: a column's tokenized-status flipped, forcing a full rebuild.
	Rebuilt bool
	// ListsShared counts posting lists aliased from the source index;
	// ListsRewritten counts lists remapped or merged.
	ListsShared, ListsRewritten int
}

// validate checks the RowDelta invariants against the index's old row count.
func (rd RowDelta) validate(oldRows int) error {
	if len(rd.RowMap) != oldRows {
		return fmt.Errorf("linkage: RowDelta maps %d rows, index has %d", len(rd.RowMap), oldRows)
	}
	covered := make([]bool, rd.NewRows)
	for oi, ni := range rd.RowMap {
		if ni < 0 {
			continue
		}
		if ni >= rd.NewRows {
			return fmt.Errorf("linkage: RowDelta maps row %d to %d of %d", oi, ni, rd.NewRows)
		}
		if covered[ni] {
			return fmt.Errorf("linkage: RowDelta maps two rows to %d", ni)
		}
		covered[ni] = true
	}
	for _, i := range rd.Dirty {
		if i < 0 || i >= rd.NewRows {
			return fmt.Errorf("linkage: RowDelta dirty row %d of %d", i, rd.NewRows)
		}
		if covered[i] {
			return fmt.Errorf("linkage: RowDelta dirty row %d collides with a mapped row", i)
		}
		covered[i] = true
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("linkage: RowDelta leaves new row %d uncovered", i)
		}
	}
	return nil
}

// ApplyDelta builds the index generation for newRight, reusing everything
// the delta did not touch. newRight must hold the post-delta rows of the
// same matched columns the index was built over; rows mapped by rd.RowMap
// must have unchanged matched-column content. Falls back to a full rebuild
// (reported in the stats) when a column's tokenized status flips — the
// whole-column sniff that decides numeric vs token similarity would
// otherwise diverge from a fresh build.
func (ix *Index) ApplyDelta(newRight *relation.Relation, rd RowDelta) (*Index, IndexDeltaStats, error) {
	var st IndexDeltaStats
	if newRight.Len() != rd.NewRows {
		return nil, st, fmt.Errorf("linkage: ApplyDelta relation has %d rows, RowDelta says %d", newRight.Len(), rd.NewRows)
	}
	if err := rd.validate(ix.nRight); err != nil {
		return nil, st, err
	}
	for k, c := range ix.rightIdx {
		if (ix.rTok[k] != nil) != !newRight.NumericOnly(c) {
			st.Rebuilt = true
			nix, err := BuildIndex(newRight, ix.rightIdx, ix.opt)
			return nix, st, err
		}
	}
	out := &Index{ts: ix.ts, opt: ix.opt, rightIdx: ix.rightIdx, nRight: rd.NewRows}

	// Token lists: survivors share their slices, dirty rows tokenize fresh
	// into the shared joint space.
	dc := &dictCache{d: newRight.Dict()}
	out.rTok = make([][][]uint32, len(ix.rightIdx))
	for k, c := range ix.rightIdx {
		if ix.rTok[k] == nil {
			continue // numeric-only on both generations
		}
		rows := make([][]uint32, rd.NewRows)
		old := ix.rTok[k]
		for oi, ni := range rd.RowMap {
			if ni >= 0 {
				rows[ni] = old[oi]
			}
		}
		for _, i := range rd.Dirty {
			code, ok := newRight.CellCode(i, c)
			if !ok {
				continue // NULL
			}
			//lint:ignore viewalias blocking lists are shared read-only by design, exactly as in tokenColumns
			rows[i] = out.ts.translate(dc, code)
		}
		out.rTok[k] = rows
	}
	out.rCols = matchColumns(newRight, ix.rightIdx)

	// Blocking unions: remap survivors, union only dirty rows.
	out.rBlock = make([][]uint32, rd.NewRows)
	for oi, ni := range rd.RowMap {
		if ni >= 0 {
			out.rBlock[ni] = ix.rBlock[oi]
		}
	}
	var scratch []uint32
	for _, i := range rd.Dirty {
		out.rBlock[i], scratch = unionRow(out.rTok, i, scratch)
	}

	// Posting lists. identity: every surviving row kept its position — the
	// delta is pure append, and untouched lists alias the source index.
	// Otherwise every list holding a moved or removed row is rewritten
	// through RowMap (delete-heavy compaction cost; see ROADMAP headroom).
	identity := true
	for oi, ni := range rd.RowMap {
		if ni != oi {
			identity = false
			break
		}
	}
	removed := make(map[uint32]bool)
	for oi, ni := range rd.RowMap {
		if ni < 0 {
			for _, t := range ix.rBlock[oi] {
				removed[t] = true
			}
		}
	}
	added := make(map[uint32][]int32)
	for _, i := range rd.Dirty { // ascending, so per-token additions are too
		for _, t := range out.rBlock[i] {
			added[t] = append(added[t], int32(i))
		}
	}
	out.post = make([][]int32, out.ts.size())
	for t := range out.post {
		tok := uint32(t)
		var old []int32
		if t < len(ix.post) {
			old = ix.fullPostings(tok)
		}
		add := added[tok]
		if identity && !removed[tok] {
			if len(add) == 0 {
				out.post[t] = old
				if len(old) > 0 {
					st.ListsShared++
				}
				continue
			}
			// Pure append: new ids all exceed the old ones.
			merged := make([]int32, 0, len(old)+len(add))
			merged = append(merged, old...)
			merged = append(merged, add...)
			out.post[t] = merged
			st.ListsRewritten++
			continue
		}
		kept := make([]int32, 0, len(old)+len(add))
		sorted := true
		for _, j := range old {
			if nj := rd.RowMap[j]; nj >= 0 {
				if len(kept) > 0 && int32(nj) < kept[len(kept)-1] {
					sorted = false
				}
				kept = append(kept, int32(nj))
			}
		}
		if !sorted {
			// RowMap from canonical-row diffing may reorder groups.
			slices.Sort(kept)
		}
		if len(kept) == 0 && len(add) == 0 {
			continue
		}
		out.post[t] = mergeSortedDisjoint(kept, add)
		st.ListsRewritten++
	}
	out.prune()
	return out, st, nil
}

// mergeSortedDisjoint merges two ascending, disjoint posting lists.
func mergeSortedDisjoint(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
