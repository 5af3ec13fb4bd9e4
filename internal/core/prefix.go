package core

import (
	"context"

	"explain3d/internal/linkage"
	"explain3d/internal/schemamap"
)

// prefix.go — the Stage-1 prefix of an explanation pair across data
// generations.
//
// A PairPrefix bundles everything Stage 1 produces for one (side 1, side 2,
// attribute matching, pair options) combination: both built sides, the
// right-side candidate index, and the raw similarity list. The initial
// mapping is a pure function of each side's matched-attribute cells, so
// Advance reuses what is provably unchanged and rebuilds the rest. A side
// whose matched cells are identical row for row (the same row count and,
// cell by cell, the same kind and payload) keeps its part of the prefix:
// side 2 its index, and when both sides are identical the raw list is
// shared. Otherwise side 2's index is rebuilt if side 2 changed, and side 1
// is rescanned in full against it.
//
// Cells are compared as values, not as CellKeys: a CellKey folds Int(3)
// and Float(3.0) into one key, but a mixed-kind column tokenizes their
// renderings "3" and "3.0" differently.
//
// A structural delta (appends, deletes, rewritten matched cells) therefore
// costs one full scan. No workload sends one: serve-delta posts impact-only
// updates. Dirty-row scans come back only with a BENCHMARK.json workload
// that shows their gain. The differential tests pin that an advanced
// prefix's raw list is byte-identical to a fresh BuildPairPrefix on the new
// data.

// PairPrefix is the reusable Stage-1 prefix of an explanation pair at one
// data generation. It is immutable after construction; Advance returns a
// new generation sharing the index and raw list where the delta left the
// matched cells unchanged.
type PairPrefix struct {
	Side1, Side2 *BuiltSide
	Mattr        schemamap.Matching
	// Index is the candidate index over side 2's comparison columns.
	Index *PairIndex
	// Raw is the uncalibrated candidate similarity list, sorted by (L, R) —
	// the RawMatches BuildStage1 produces for the same generation.
	Raw []linkage.Match
}

// PairDiff reports what Advance had to recompute.
type PairDiff struct {
	// Changed1/Changed2 report whether each side moved to a new generation.
	Changed1, Changed2 bool
	// FullRescan: some side's matched cells changed, so the raw list was
	// rebuilt by one full scan of side 1 (against a rebuilt index when side
	// 2's cells changed).
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

// sameMatchedCells reports whether two generations of one side hold the
// same matched-attribute cells row for row: the same row count and, for
// every cell, the same kind and payload.
func sameMatchedCells(a, b *Canonical, mattr schemamap.Matching, left bool) (bool, error) {
	if a.Len() != b.Len() {
		return false, nil
	}
	ca, err := matchColumns(a, mattr, left)
	if err != nil {
		return false, err
	}
	cb, err := matchColumns(b, mattr, left)
	if err != nil {
		return false, err
	}
	for i := range ca {
		for k := range ca[i] {
			va, vb := a.Rel.Accessor(ca[i][k]), b.Rel.Accessor(cb[i][k])
			for r := 0; r < a.Len(); r++ {
				if va(r) != vb(r) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// Advance moves the prefix to new side generations. Unchanged sides are
// recognized by pointer equality, changed ones by their matched cells
// (sameMatchedCells). A side whose cells are unchanged keeps its part of
// the prefix; otherwise side 2's index is rebuilt if its cells changed and
// side 1 is rescanned in full. The returned prefix's Raw list is
// byte-identical to a fresh BuildPairPrefix(s1, s2, ...) with the same
// options; the receiver is not modified and stays valid (in-flight
// requests keep scoring against the old generation).
func (pp *PairPrefix) Advance(s1, s2 *BuiltSide, workers int) (*PairPrefix, PairDiff, error) {
	d := PairDiff{Changed1: s1 != pp.Side1, Changed2: s2 != pp.Side2}
	if !d.Changed1 && !d.Changed2 {
		return pp, d, nil
	}
	out := &PairPrefix{Side1: s1, Side2: s2, Mattr: pp.Mattr, Index: pp.Index, Raw: pp.Raw}
	same1, same2 := true, true
	var err error
	if d.Changed1 {
		if same1, err = sameMatchedCells(pp.Side1.Canon, s1.Canon, pp.Mattr, true); err != nil {
			return nil, d, err
		}
	}
	if d.Changed2 {
		if same2, err = sameMatchedCells(pp.Side2.Canon, s2.Canon, pp.Mattr, false); err != nil {
			return nil, d, err
		}
		if !same2 {
			if out.Index, err = BuildPairIndex(s2.Canon, pp.Mattr, pp.Index.Options()); err != nil {
				return nil, d, err
			}
		}
	}
	if same1 && same2 {
		return out, d, nil
	}
	d.FullRescan = true
	if out.Raw, err = out.Index.match(s1.Canon, pp.Mattr, workers); err != nil {
		return nil, d, err
	}
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
