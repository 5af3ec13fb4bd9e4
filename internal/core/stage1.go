package core

import (
	"fmt"
	"sync"

	"explain3d/internal/linkage"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// BuiltSide is one query's Stage-1 prefix: extracted provenance and the
// canonical relation. It depends only on (database, query, matched
// attributes), so it could be shared by every request that pins that side.
// explaind does not share it: its Stage-1 memo builds both sides for each
// new (query pair, matches, options) key, and reuses a side only when a
// data delta leaves that side's relations unchanged.
type BuiltSide struct {
	Prov  *query.Provenance
	Canon *Canonical
}

// BuildSide extracts and canonicalizes one side. attrs are the side's
// matched attributes (Matching.LeftAttrs or RightAttrs); name labels errors
// ("Q1"/"Q2").
func BuildSide(q *sqlparse.Select, db *relation.Database, attrs []string, name string) (*BuiltSide, error) {
	p, err := query.Extract(q, db)
	if err != nil {
		return nil, fmt.Errorf("core: provenance of %s: %w", name, err)
	}
	t, err := Canonicalize(p, attrs)
	if err != nil {
		return nil, fmt.Errorf("core: canonicalizing %s: %w", name, err)
	}
	return &BuiltSide{Prov: p, Canon: t}, nil
}

// PairIndex is the right side's half of initial-mapping candidate
// generation — comparison columns plus the inverted token index — prebuilt
// once and scanned by any number of left sides. A reused index answers
// exactly as a fresh one: candidate discovery verifies exact shared-token
// counts and scoring is per-pair-deterministic, so the match list does not
// depend on token-id assignment order.
type PairIndex struct {
	ix   *linkage.Index
	popt linkage.PairOptions
	nm   int // number of attribute matches the index columns encode
}

// Options returns the candidate-generation options the index was built
// with. Requests reusing the index must resolve to the same options, or the
// cached index does not answer the same question.
func (pi *PairIndex) Options() linkage.PairOptions { return pi.popt }

// BuildPairIndex prebuilds the candidate index over side 2's comparison
// columns for the given attribute matches and options.
func BuildPairIndex(t2 *Canonical, mattr schemamap.Matching, popt linkage.PairOptions) (*PairIndex, error) {
	r2, idx, err := comparisonColumns(t2, mattr, false)
	if err != nil {
		return nil, err
	}
	ix, err := linkage.BuildIndex(r2, idx, popt)
	if err != nil {
		return nil, err
	}
	return &PairIndex{ix: ix, popt: popt, nm: len(mattr)}, nil
}

// match scores side 1's comparison columns against the prebuilt index.
func (pi *PairIndex) match(t1 *Canonical, mattr schemamap.Matching, workers int) ([]linkage.Match, error) {
	if len(mattr) != pi.nm {
		return nil, fmt.Errorf("core: PairIndex built for %d attribute matches, request has %d", pi.nm, len(mattr))
	}
	r1, idx, err := comparisonColumns(t1, mattr, true)
	if err != nil {
		return nil, err
	}
	return pi.ix.Similarities(r1, idx, workers)
}

// Stage1 is the reusable prefix of an explanation run: both sides'
// provenance and canonical relations plus the raw (uncalibrated) candidate
// similarities. Everything downstream — calibration, probability filtering,
// MILP encoding — is cheap and parameter-dependent, so a server caches the
// Stage1 and derives a fresh Instance per request via Instance.
type Stage1 struct {
	Prov1, Prov2 *query.Provenance
	T1, T2       *Canonical
	Mattr        schemamap.Matching
	// RawMatches are the candidate similarities before calibration (P
	// unset).
	RawMatches []linkage.Match
}

// BuildStage1 runs the Stage-1 prefix: extract provenance and
// canonicalize, with the two sides running concurrently unless
// Workers == 1, then score raw candidate similarities through
// BuildPairPrefix, the path explaind takes.
func BuildStage1(in Input) (*Stage1, error) {
	var s1, s2 *BuiltSide
	build1 := func() (err error) {
		s1, err = BuildSide(in.Q1, in.DB1, in.Mattr.LeftAttrs(), "Q1")
		return err
	}
	build2 := func() (err error) {
		s2, err = BuildSide(in.Q2, in.DB2, in.Mattr.RightAttrs(), "Q2")
		return err
	}
	var err1, err2 error
	if in.Workers == 1 {
		// Honor the documented fully-sequential contract: no goroutines.
		err1 = build1()
		err2 = build2()
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			err2 = build2()
		}()
		err1 = build1()
		wg.Wait()
	}
	if err1 != nil {
		return nil, err1
	}
	if err2 != nil {
		return nil, err2
	}
	popt := linkage.DefaultPairOptions()
	if in.PairOpts != nil {
		popt = *in.PairOpts
	}
	pp, err := BuildPairPrefix(s1, s2, in.Mattr, popt, in.Workers)
	if err != nil {
		return nil, err
	}
	return &Stage1{Prov1: s1.Prov, Prov2: s2.Prov, T1: s1.Canon, T2: s2.Canon, Mattr: in.Mattr, RawMatches: pp.Raw}, nil
}

// resolveMinProb applies the default probability floor: 0 means 0.02.
func resolveMinProb(minProb float64) float64 {
	if minProb == 0 {
		return 0.02
	}
	return minProb
}

// Instance derives an optimization instance from the Stage-1 prefix:
// calibrate the raw similarities (nil calibrator treats similarity as
// probability) and drop matches below minProb (0 means the 0.02 default).
// The receiver is not modified, so one cached Stage1 serves concurrent
// requests with different calibrators and thresholds.
func (s *Stage1) Instance(cal *linkage.Calibrator, minProb float64) *Instance {
	if cal == nil {
		cal = linkage.NewCalibrator(50) // unfitted: identity mapping
	}
	matches := FilterMatches(linkage.Calibrate(s.RawMatches, cal), resolveMinProb(minProb))
	return &Instance{T1: s.T1, T2: s.T2, Matches: matches, Card: CardinalityOf(s.Mattr)}
}
