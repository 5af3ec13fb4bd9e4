package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"explain3d/internal/linkage"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
)

// prefix.go — incremental maintenance of the full Stage-1 prefix.
//
// A PairPrefix bundles everything Stage 1 produces for one (side 1, side 2,
// attribute matching, pair options) combination: both built sides, the
// right-side candidate index, and the raw similarity list. Advance moves a
// prefix from one data generation to the next without redoing the
// unchanged work: canonical rows are diffed by their matching-attribute
// cell keys, side 2's index is reused while that content is unchanged row
// for row and rebuilt otherwise, and only matches touching dirty rows are
// rescored — survivors keep their stored similarity, which is exact
// because a pair's similarity is a pure function of its two rows'
// matched-column content (Sim dispatch is even invariant to whole-column
// tokenized status: jaccardSorted and StringSim are bit-identical on the
// same token sets).
//
// Candidate DISCOVERY, unlike scoring, does depend on whole-column state:
// blocking tokens come only from columns sniffed as tokenized. Advance
// therefore falls back to one full rescan whenever a delta flips a virtual
// column's status on either side — rare, and still correct. The
// differential tests pin the invariant that an advanced prefix's raw match
// list is byte-identical to a fresh BuildPairPrefix on the new data.

// PairPrefix is the reusable Stage-1 prefix of an explanation pair at one
// data generation. It is immutable after construction; Advance returns a
// new generation sharing everything the delta did not touch.
type PairPrefix struct {
	Side1, Side2 *BuiltSide
	Mattr        schemamap.Matching
	// Index is the candidate index over side 2's comparison columns.
	Index *PairIndex
	// Raw is the uncalibrated candidate similarity list, sorted by (L, R) —
	// exactly what RawSimilarities produces for the same generation.
	Raw []linkage.Match
}

// PairDiff reports what Advance had to recompute.
type PairDiff struct {
	// Changed1/Changed2 report whether each side moved to a new generation.
	Changed1, Changed2 bool
	// Dirty1/Dirty2 count canonical rows whose matching-attribute content is
	// new on each side; Deleted1/Deleted2 count old rows without a partner.
	Dirty1, Deleted1 int
	Dirty2, Deleted2 int
	// MatchesKept counts surviving matches remapped without rescoring;
	// MatchesRescored counts matches produced by the dirty-row scans.
	MatchesKept, MatchesRescored int
	// FullRescan: a virtual column's tokenized status flipped (or a dirty
	// subset would sniff differently), so the match list was rebuilt by one
	// full scan against side 2's current index instead of dirty-row scans.
	FullRescan bool
}

// BuildPairPrefix builds the Stage-1 prefix fresh: the right-side candidate
// index plus the raw similarity scan of side 1 against it.
func BuildPairPrefix(s1, s2 *BuiltSide, mattr schemamap.Matching, popt linkage.PairOptions, workers int) (*PairPrefix, error) {
	pi, err := BuildPairIndex(s2.Canon, mattr, popt)
	if err != nil {
		return nil, err
	}
	raw, err := pi.match(s1.Canon, mattr, workers)
	if err != nil {
		return nil, err
	}
	return &PairPrefix{Side1: s1, Side2: s2, Mattr: mattr, Index: pi, Raw: raw}, nil
}

// BuildPairPrefixFrom assembles the prefix from a prebuilt right-side
// candidate index (which must be over s2.Canon with the prefix's options),
// running only the raw similarity scan. Servers use it to share one index
// across every left query asked against the same right side.
func BuildPairPrefixFrom(s1, s2 *BuiltSide, mattr schemamap.Matching, pi *PairIndex, workers int) (*PairPrefix, error) {
	raw, err := pi.match(s1.Canon, mattr, workers)
	if err != nil {
		return nil, err
	}
	return &PairPrefix{Side1: s1, Side2: s2, Mattr: mattr, Index: pi, Raw: raw}, nil
}

// matchAttrColumns resolves the side's matching attributes to column
// indexes in the canonical relation, flattened in attribute-match order.
func matchAttrColumns(c *Canonical, mattr schemamap.Matching, left bool) ([]int, error) {
	var cols []int
	for _, am := range mattr {
		attrs := am.Right
		if left {
			attrs = am.Left
		}
		for _, a := range attrs {
			j, err := c.Rel.Schema.Index(a)
			if err != nil {
				return nil, fmt.Errorf("core: attribute match references %q missing from canonical relation: %w", a, err)
			}
			cols = append(cols, j)
		}
	}
	return cols, nil
}

// canonRowDiff pairs old and new canonical rows by matching-attribute cell
// keys, occurrence-indexed: the i-th old row with a given key content maps
// to the i-th new row with the same content. Returns rowMap (old row → new
// row, -1 when deleted or content changed) and the ascending list of new
// rows without a partner. Cell keys encode against the new relation's
// dictionary on both sides, so the diff is exact even across dictionaries.
func canonRowDiff(oldC, newC *Canonical, cols []int) (rowMap, dirty []int) {
	target := newC.Rel.Dict()
	oldKeys := make([][]relation.CellKey, len(cols))
	newKeys := make([][]relation.CellKey, len(cols))
	for ci, j := range cols {
		oldKeys[ci] = oldC.Rel.ColumnCellKeys(nil, j, target)
		newKeys[ci] = newC.Rel.ColumnCellKeys(nil, j, target)
	}
	nOld := oldC.Len()
	buckets := make(map[uint64][]int32, nOld)
	for i := 0; i < nOld; i++ {
		h := relation.HashRow(oldKeys, i)
		buckets[h] = append(buckets[h], int32(i))
	}
	used := make([]bool, nOld)
	rowMap = make([]int, nOld)
	for i := range rowMap {
		rowMap[i] = -1
	}
	for i := 0; i < newC.Len(); i++ {
		h := relation.HashRow(newKeys, i)
		matched := false
		for _, cand := range buckets[h] {
			if !used[cand] && relation.RowKeysEqual(oldKeys, int(cand), newKeys, i) {
				rowMap[cand] = i
				used[cand] = true
				matched = true
				break
			}
		}
		if !matched {
			dirty = append(dirty, i)
		}
	}
	return rowMap, dirty
}

// subsetRows builds a relation holding the given rows of r, in order,
// sharing r's dictionary and schema.
func subsetRows(r *relation.Relation, rows []int) *relation.Relation {
	names := make([]string, len(r.Schema.Columns))
	for i, c := range r.Schema.Columns {
		names[i] = c.QualifiedName()
	}
	out := relation.NewWithDict(r.Dict(), r.Name, names...)
	var row relation.Tuple
	for _, i := range rows {
		row = r.RowInto(row, i)
		out.AppendRow(row)
	}
	return out
}

// sniffEqual reports whether every one of the first n columns sniffs the
// same numeric-only status in both relations.
func sniffEqual(a, b *relation.Relation, n int) bool {
	for k := 0; k < n; k++ {
		if a.NumericOnly(k) != b.NumericOnly(k) {
			return false
		}
	}
	return true
}

// isIdentity reports whether rowMap keeps every old row in place.
func isIdentity(rowMap []int) bool {
	for oi, ni := range rowMap {
		if ni != oi {
			return false
		}
	}
	return true
}

func countDeleted(rowMap []int) int {
	n := 0
	for _, ni := range rowMap {
		if ni < 0 {
			n++
		}
	}
	return n
}

// Advance moves the prefix to new side generations. Unchanged sides are
// recognized by POINTER equality — a resident server keeps each side's
// BuiltSide per data generation, so identity means identity. The returned
// prefix's Raw list is byte-identical to a fresh BuildPairPrefix(s1, s2,
// ...) with the same options; the receiver is not modified and stays valid
// (in-flight requests keep scoring against the old generation).
func (pp *PairPrefix) Advance(s1, s2 *BuiltSide, workers int) (*PairPrefix, PairDiff, error) {
	var d PairDiff
	if s1 == pp.Side1 && s2 == pp.Side2 {
		return pp, d, nil
	}
	popt := pp.Index.Options()
	idx := make([]int, len(pp.Mattr))
	for i := range idx {
		idx[i] = i
	}

	var rowMap1, dirty1, rowMap2, dirty2 []int
	if s1 != pp.Side1 {
		d.Changed1 = true
		cols, err := matchAttrColumns(s1.Canon, pp.Mattr, true)
		if err != nil {
			return nil, d, err
		}
		rowMap1, dirty1 = canonRowDiff(pp.Side1.Canon, s1.Canon, cols)
		d.Dirty1, d.Deleted1 = len(dirty1), countDeleted(rowMap1)
	}
	if s2 != pp.Side2 {
		d.Changed2 = true
		cols, err := matchAttrColumns(s2.Canon, pp.Mattr, false)
		if err != nil {
			return nil, d, err
		}
		rowMap2, dirty2 = canonRowDiff(pp.Side2.Canon, s2.Canon, cols)
		d.Dirty2, d.Deleted2 = len(dirty2), countDeleted(rowMap2)
	}

	// Side 2's index is reused while its matched-column content is
	// unchanged row for row, and rebuilt over the new rows otherwise.
	// Discovery depends on whole-column tokenized status, so a flip on
	// either side, sniffed against the previous generation's virtual
	// columns, forces one full rescan.
	npi := pp.Index
	fullRescan := false
	var v2new *relation.Relation
	if d.Changed2 && (len(dirty2) > 0 || !isIdentity(rowMap2)) {
		v2old, err := VirtualColumns(pp.Side2.Canon, pp.Mattr, false)
		if err != nil {
			return nil, d, err
		}
		if v2new, err = VirtualColumns(s2.Canon, pp.Mattr, false); err != nil {
			return nil, d, err
		}
		nix, err := linkage.BuildIndex(v2new, idx, popt)
		if err != nil {
			return nil, d, err
		}
		npi = &PairIndex{ix: nix, popt: popt, nm: len(pp.Mattr)}
		fullRescan = !sniffEqual(v2old, v2new, len(pp.Mattr))
	}
	var v1new *relation.Relation
	if d.Changed1 || len(dirty2) > 0 || fullRescan {
		var err error
		v1new, err = VirtualColumns(s1.Canon, pp.Mattr, true)
		if err != nil {
			return nil, d, err
		}
	}
	if d.Changed1 && !fullRescan {
		v1old, err := VirtualColumns(pp.Side1.Canon, pp.Mattr, true)
		if err != nil {
			return nil, d, err
		}
		if !sniffEqual(v1old, v1new, len(pp.Mattr)) {
			fullRescan = true
		}
	}

	// Dirty-row subsets must sniff like their full relations, or their
	// scans would block on different columns than a fresh full scan.
	var v1sub, v2sub *relation.Relation
	if !fullRescan && len(dirty1) > 0 {
		v1sub = subsetRows(v1new, dirty1)
		if !sniffEqual(v1sub, v1new, len(pp.Mattr)) {
			fullRescan = true
		}
	}
	if !fullRescan && len(dirty2) > 0 {
		v2sub = subsetRows(v2new, dirty2)
		if !sniffEqual(v2sub, v2new, len(pp.Mattr)) {
			fullRescan = true
		}
	}

	out := &PairPrefix{Side1: s1, Side2: s2, Mattr: pp.Mattr, Index: npi}
	if fullRescan {
		d.FullRescan = true
		raw, err := npi.ix.Similarities(v1new, idx, workers)
		if err != nil {
			return nil, d, err
		}
		d.MatchesRescored = len(raw)
		out.Raw = raw
		return out, d, nil
	}

	// Surviving matches: both endpoints kept their matched-column content,
	// so the stored similarity is exact — remap the ids and keep it.
	raw := make([]linkage.Match, 0, len(pp.Raw))
	for _, m := range pp.Raw {
		nl, nr := m.L, m.R
		if rowMap1 != nil {
			nl = rowMap1[m.L]
		}
		if rowMap2 != nil {
			nr = rowMap2[m.R]
		}
		if nl < 0 || nr < 0 {
			continue
		}
		m.L, m.R = nl, nr
		raw = append(raw, m)
	}
	d.MatchesKept = len(raw)

	// Dirty left rows scan against side 2's full index: every pair with
	// a dirty left endpoint, exactly as the full scan would emit it.
	if len(dirty1) > 0 {
		ms, err := npi.ix.Similarities(v1sub, idx, workers)
		if err != nil {
			return nil, d, err
		}
		for i := range ms {
			ms[i].L = dirty1[ms[i].L]
		}
		d.MatchesRescored += len(ms)
		raw = append(raw, ms...)
	}

	// Dirty right rows: a mini-index over just those rows scanned by the
	// full left side covers every pair with a dirty right endpoint; pairs
	// with a dirty LEFT endpoint were already found above.
	if len(dirty2) > 0 {
		mini, err := linkage.BuildIndex(v2sub, idx, popt)
		if err != nil {
			return nil, d, err
		}
		ms, err := mini.Similarities(v1new, idx, workers)
		if err != nil {
			return nil, d, err
		}
		dirtyL := make([]bool, s1.Canon.Len())
		for _, i := range dirty1 {
			dirtyL[i] = true
		}
		for _, m := range ms {
			if dirtyL[m.L] {
				continue
			}
			m.R = dirty2[m.R]
			raw = append(raw, m)
			d.MatchesRescored++
		}
	}

	// The fresh scan emits strictly (L, R)-ascending pairs; the three
	// disjoint parts above cover exactly its output, so sorting restores
	// the identical list.
	slices.SortFunc(raw, func(a, b linkage.Match) int {
		return cmp.Or(cmp.Compare(a.L, b.L), cmp.Compare(a.R, b.R))
	})
	out.Raw = raw
	return out, d, nil
}

// ExplainPrefixContext runs the back half of an explanation on a prebuilt
// (possibly incrementally advanced) Stage-1 prefix: calibrate and filter the
// raw matches, then solve through the optional solution cache. With a nil
// cache it produces exactly what ExplainContext produces for the same
// generation and parameters.
func ExplainPrefixContext(ctx context.Context, pp *PairPrefix, cal *linkage.Calibrator, minProb float64, p Params, cache *SolveCache) (*Result, error) {
	if err := p.withDefaults().validate(); err != nil {
		return nil, err
	}
	st := &Stage1{
		Prov1: pp.Side1.Prov, Prov2: pp.Side2.Prov,
		T1: pp.Side1.Canon, T2: pp.Side2.Canon,
		Mattr: pp.Mattr, RawMatches: pp.Raw,
	}
	inst := st.Instance(cal, minProb)
	res := &Result{Prov1: st.Prov1, Prov2: st.Prov2, T1: st.T1, T2: st.T2, Instance: inst}
	expl, stats, err := SolveInstanceCached(ctx, inst, p, cache)
	if err != nil {
		return nil, err
	}
	res.Expl = expl
	res.Stats = *stats
	return res, nil
}
