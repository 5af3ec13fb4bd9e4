// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5): dataset statistics (Fig. 4), accuracy and
// efficiency on academic pairs (Fig. 6) and the IMDb views (Fig. 7), and
// the smart-partitioning scalability study on synthetic data (Fig. 8).
// Gold standards are constructed from the generators' hidden entity ids,
// mirroring the paper's tracked view-generation losses and injected
// errors.
package experiments

import (
	"fmt"
	"strings"

	"explain3d/internal/core"
	"explain3d/internal/linkage"
	"explain3d/internal/query"
)

// GoldFromEIDs derives the optimal explanations for an instance using the
// hidden entity ids: canonical tuples sharing an entity id correspond, the
// rest are provenance-based explanations, and corresponding groups with
// unequal impacts are value-based explanations. eid1/eid2 name the entity
// column in each side's provenance relation (e.g. "m._eid").
func GoldFromEIDs(inst *core.Instance, p1, p2 *query.Provenance, eid1, eid2 string) (*core.Explanations, error) {
	leftEIDs, err := canonicalEIDs(inst.T1, p1, eid1)
	if err != nil {
		return nil, fmt.Errorf("experiments: left gold: %w", err)
	}
	rightEIDs, err := canonicalEIDs(inst.T2, p2, eid2)
	if err != nil {
		return nil, fmt.Errorf("experiments: right gold: %w", err)
	}
	// Right-side canonical per eid.
	rightOf := make(map[int64][]int)
	for j, eids := range rightEIDs {
		for _, e := range eids {
			rightOf[e] = append(rightOf[e], j)
		}
	}
	// Each left canonical pairs with the right canonical sharing the most
	// entity ids (ties to the smallest index).
	var evidence []core.Evidence
	seen := make(map[[2]int]bool)
	for i, eids := range leftEIDs {
		counts := make(map[int]int)
		for _, e := range eids {
			for _, j := range rightOf[e] {
				counts[j]++
			}
		}
		best, bestN := -1, 0
		for j, n := range counts {
			if n > bestN || (n == bestN && best >= 0 && j < best) {
				best, bestN = j, n
			}
		}
		if best >= 0 && !seen[[2]int{i, best}] {
			seen[[2]int{i, best}] = true
			evidence = append(evidence, core.Evidence{L: i, R: best, P: 1})
		}
	}
	return core.ExplanationsFromEvidence(inst, evidence), nil
}

// canonicalEIDs maps each canonical tuple to the distinct entity ids of
// its source provenance rows (negative ids, used for noise rows, are
// skipped).
func canonicalEIDs(c *core.Canonical, p *query.Provenance, eidAttr string) ([][]int64, error) {
	idx, err := p.Rel.Schema.Index(eidAttr)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, c.Len())
	for t := 0; t < c.Len(); t++ {
		seen := make(map[int64]bool)
		for _, row := range c.Rows(t) {
			v := p.Rel.At(int(row), idx)
			if v.IsNull() {
				continue
			}
			e := v.IntVal()
			if e < 0 || seen[e] {
				continue
			}
			seen[e] = true
			out[t] = append(out[t], e)
		}
	}
	return out, nil
}

// NormalizeExplKeys maps value-based explanation keys onto their gold
// component so that flagging either endpoint of a corresponding pair
// counts as the same explanation (the optimization objective cannot
// distinguish which side of a matched pair holds the wrong value; neither
// could a human without outside knowledge). Provenance-based keys pass
// through unchanged.
func NormalizeExplKeys(e *core.Explanations, goldEvidence []core.Evidence) []string {
	leftPartner := make(map[int]int)
	for _, ev := range goldEvidence {
		if _, ok := leftPartner[ev.L]; !ok {
			leftPartner[ev.L] = ev.R
		}
	}
	var out []string
	for _, pe := range e.Prov {
		out = append(out, pe.Key())
	}
	for _, ve := range e.Val {
		if ve.Side == core.Left {
			if j, ok := leftPartner[ve.Tuple]; ok {
				out = append(out, fmt.Sprintf("δc|R|%d", j))
				continue
			}
		} else {
			out = append(out, fmt.Sprintf("δc|R|%d", ve.Tuple))
			continue
		}
		out = append(out, ve.Key())
	}
	return out
}

// FitCalibrator labels the raw similarity matches against the gold
// evidence and fits the paper's 50-bucket similarity-to-probability model.
func FitCalibrator(matches []linkage.Match, gold *core.Explanations) (*linkage.Calibrator, error) {
	truth := make(map[[2]int]bool, len(gold.Evidence))
	for _, ev := range gold.Evidence {
		truth[[2]int{ev.L, ev.R}] = true
	}
	sims := make([]float64, len(matches))
	labels := make([]bool, len(matches))
	for i, m := range matches {
		sims[i] = m.Sim
		labels[i] = truth[[2]int{m.L, m.R}]
	}
	cal := linkage.NewCalibrator(50)
	if err := cal.Fit(sims, labels); err != nil {
		return nil, err
	}
	return cal, nil
}

// formatSeconds renders a duration like the paper's tables.
func formatSeconds(sec float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", sec), "0"), ".")
}
