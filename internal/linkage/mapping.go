package linkage

import (
	"fmt"
	"math"
	"slices"

	"explain3d/internal/relation"
)

// Match is one candidate tuple match (ti, tj, p): L indexes the left
// relation's rows, R the right's. Sim is the raw combined similarity; P is
// the calibrated probability.
type Match struct {
	L, R int
	Sim  float64
	P    float64
}

// PairOptions controls candidate generation. Token blocking always
// applies when some matched column is tokenized; with numeric-only matched
// columns every pair is scored (the cross product).
type PairOptions struct {
	// MinSim drops candidate pairs below this combined similarity
	// (default 0.05 — pairs with essentially no evidence). It also sizes
	// the scan's per-row prefix filter: a left row that must share m
	// tokens with a right row to reach MinSim skips its m−1 longest
	// posting lists, so a higher MinSim makes the scan cheaper, not only
	// the output shorter.
	MinSim float64
	// MinSharedTokens is the blocking threshold (default 1): only pairs
	// sharing at least this many tokens on the matched string attributes
	// are scored. Raising it to 2 prunes pairs that only share a frequent
	// token (articles, common vocabulary words) and keeps large workloads
	// tractable.
	MinSharedTokens int
}

// DefaultPairOptions returns the default similarity floor and blocking
// threshold.
func DefaultPairOptions() PairOptions {
	return PairOptions{MinSim: 0.05, MinSharedTokens: 1}
}

// matchCol is one matched column's typed row view for the scoring loop:
// null flags and numeric values are read straight off the columnar typed
// arrays, with a boxed fallback kept only for columns whose cells can
// still reach the generic ValueSim path (bool or mixed-kind columns).
type matchCol struct {
	null  []bool
	num   []bool           // non-NULL numeric cell
	f     []float64        // numeric value where num is set
	boxed []relation.Value // non-nil only for bool/mixed columns
	rel   *relation.Relation
	col   int
}

// value materializes one cell for the rare generic-similarity fallback.
func (mc *matchCol) value(i int) relation.Value {
	if mc.boxed != nil {
		return mc.boxed[i]
	}
	return mc.rel.At(i, mc.col)
}

// matchColumns builds the matched columns' typed row views. Homogeneous
// INT/FLOAT/TEXT columns dispatch off their typed storage in O(rows) with
// no Value boxing; only bool and mixed-kind columns fall back to boxing
// once (the cost the whole-relation scan always paid).
func matchColumns(r *relation.Relation, idx []int) []matchCol {
	out := make([]matchCol, len(idx))
	for k, c := range idx {
		n := r.Len()
		mc := matchCol{null: make([]bool, n), rel: r, col: c}
		if segs, nullSegs, ok := r.IntSegments(c); ok {
			mc.num = make([]bool, n)
			mc.f = make([]float64, n)
			base := 0
			for s, ints := range segs {
				nulls := nullSegs[s]
				for i := range ints {
					if relation.NullAt(nulls, i) {
						mc.null[base+i] = true
						continue
					}
					mc.num[base+i] = true
					mc.f[base+i] = float64(ints[i])
				}
				base += len(ints)
			}
		} else if segs, nullSegs, ok := r.FloatSegments(c); ok {
			mc.num = make([]bool, n)
			mc.f = make([]float64, n)
			base := 0
			for s, floats := range segs {
				nulls := nullSegs[s]
				for i := range floats {
					if relation.NullAt(nulls, i) {
						mc.null[base+i] = true
						continue
					}
					mc.num[base+i] = true
					mc.f[base+i] = floats[i]
				}
				base += len(floats)
			}
		} else if segs, nullSegs, ok := r.StringSegments(c); ok {
			// No cell is numeric, so num stays all-false and f (only read
			// under num) can stay nil.
			mc.num = make([]bool, n)
			base := 0
			for s, codes := range segs {
				nulls := nullSegs[s]
				for i := range codes {
					mc.null[base+i] = relation.NullAt(nulls, i)
				}
				base += len(codes)
			}
		} else {
			vals := make([]relation.Value, n)
			mc.num = make([]bool, n)
			mc.f = make([]float64, n)
			for i := 0; i < n; i++ {
				v := r.At(i, c)
				vals[i] = v
				if v.IsNull() {
					mc.null[i] = true
					continue
				}
				if v.IsNumeric() {
					mc.num[i] = true
					mc.f[i], _ = v.AsFloat()
				}
			}
			mc.boxed = vals
		}
		out[k] = mc
	}
	return out
}

// Calibrator implements the paper's two-step similarity-to-probability
// method: divide matches into k contiguous similarity buckets, then set
// each bucket's probability to its fraction of true matches in a labeled
// sample.
type Calibrator struct {
	k     int
	probs []float64
	fit   bool
}

// NewCalibrator creates a calibrator with k buckets (the paper uses 50).
func NewCalibrator(k int) *Calibrator {
	if k < 1 {
		k = 1
	}
	return &Calibrator{k: k}
}

func (c *Calibrator) bucket(sim float64) int {
	b := int(sim * float64(c.k))
	if b >= c.k {
		b = c.k - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Fit learns bucket probabilities from labeled similarities. Buckets with
// no observations inherit the nearest fitted bucket below them (and above
// as a fallback), so Prob is total.
func (c *Calibrator) Fit(sims []float64, truth []bool) error {
	if len(sims) != len(truth) {
		return fmt.Errorf("linkage: Fit requires aligned slices, got %d and %d", len(sims), len(truth))
	}
	counts := make([]int, c.k)
	trues := make([]int, c.k)
	for i, s := range sims {
		b := c.bucket(s)
		counts[b]++
		if truth[i] {
			trues[b]++
		}
	}
	c.probs = make([]float64, c.k)
	for b := range c.probs {
		if counts[b] > 0 {
			c.probs[b] = float64(trues[b]) / float64(counts[b])
		} else {
			c.probs[b] = -1 // fill below
		}
	}
	// Fill gaps from below, then above.
	last := -1.0
	for b := 0; b < c.k; b++ {
		if c.probs[b] >= 0 {
			last = c.probs[b]
		} else if last >= 0 {
			c.probs[b] = last
		}
	}
	last = -1
	for b := c.k - 1; b >= 0; b-- {
		if c.probs[b] >= 0 {
			last = c.probs[b]
		} else if last >= 0 {
			c.probs[b] = last
		}
	}
	for b := range c.probs {
		if c.probs[b] < 0 {
			c.probs[b] = 0.5 // no labels at all: uninformative prior
		}
	}
	c.fit = true
	return nil
}

// Prob maps a similarity to its calibrated probability.
func (c *Calibrator) Prob(sim float64) float64 {
	if !c.fit {
		return sim // identity fallback: treat similarity as probability
	}
	return c.probs[c.bucket(sim)]
}

// SimFloor returns the largest similarity s such that every similarity
// that keeps a positive probability (Calibrate) at or above minProb
// (core.FilterMatches) is at least s, so a Stage-1 scan at MinSim s loses
// no match those two steps keep. An unfitted or nil calibrator gives
// minProb, since identity calibration sets P to the similarity; when no
// bucket survives it returns +Inf, and when the lowest bucket survives,
// -Inf. Otherwise s is the smallest float64 that bucket maps to the lowest
// surviving bucket or above, found by stepping from its edge b/k with
// math.Nextafter, so float rounding in bucket never drops a kept pair.
func (c *Calibrator) SimFloor(minProb float64) float64 {
	if c == nil || !c.fit {
		return minProb
	}
	b0 := slices.IndexFunc(c.probs, func(p float64) bool { return p > 0 && p >= minProb })
	switch b0 {
	case -1:
		return math.Inf(1)
	case 0:
		return math.Inf(-1)
	}
	s := float64(b0) / float64(c.k)
	for c.bucket(s) < b0 {
		s = math.Nextafter(s, math.Inf(1))
	}
	for c.bucket(math.Nextafter(s, math.Inf(-1))) >= b0 {
		s = math.Nextafter(s, math.Inf(-1))
	}
	return s
}

// Calibrate assigns P to every match using the calibrator and drops
// matches with probability 0 (they carry no evidence and would only bloat
// the optimization problem).
func Calibrate(matches []Match, c *Calibrator) []Match {
	out := make([]Match, 0, len(matches))
	for _, m := range matches {
		p := c.Prob(m.Sim)
		if p <= 0 {
			continue
		}
		m.P = p
		out = append(out, m)
	}
	return out
}
