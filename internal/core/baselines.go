package core

import (
	"math"
	"sort"

	"explain3d/internal/linkage"
	"explain3d/internal/milp"
)

// Threshold implements the THRESHOLD-τ baseline (Section 5.1.3): the
// evidence mapping is every initial match with probability ≥ τ;
// explanations follow from the evidence the same way as for R-Swoosh.
func Threshold(inst *Instance, tau float64) *Explanations {
	var ev []Evidence
	for _, m := range inst.Matches {
		if m.P >= tau {
			ev = append(ev, Evidence{L: m.L, R: m.R, P: m.P})
		}
	}
	return ExplanationsFromEvidence(inst, ev)
}

// EvidenceExplanations exposes the shared evidence-to-explanations
// derivation for external linkage systems (e.g. R-Swoosh output).
func EvidenceExplanations(inst *Instance, matches []linkage.Match) *Explanations {
	ev := make([]Evidence, 0, len(matches))
	for _, m := range matches {
		ev = append(ev, Evidence{L: m.L, R: m.R, P: m.P})
	}
	return ExplanationsFromEvidence(inst, ev)
}

// Greedy implements the GREEDY baseline: it scans the initial matches in
// decreasing probability order and admits a match into the evidence when
// it (a) keeps the mapping valid and (b) improves the EXP-3D objective
// (Equation 13), evaluated on the affected component.
func Greedy(inst *Instance, p Params) *Explanations {
	p = p.withDefaults()
	a, bCost, c := logConsts(p)
	order := make([]int, len(inst.Matches))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return inst.Matches[order[x]].P > inst.Matches[order[y]].P
	})

	degL := make(map[int]int)
	degR := make(map[int]int)
	// Union-find over global node ids to track component sums.
	n1 := inst.T1.Len()
	parent := make([]int, n1+inst.T2.Len())
	sumL := make([]float64, len(parent))
	sumR := make([]float64, len(parent))
	cntL := make([]int, len(parent))
	cntR := make([]int, len(parent))
	for i := range parent {
		parent[i] = i
		if i < n1 {
			sumL[i] = inst.T1.Impacts[i]
			cntL[i] = 1
		} else {
			sumR[i] = inst.T2.Impacts[i-n1]
			cntR[i] = 1
		}
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// componentScore evaluates the tuple-term contribution of a component
	// under the forced completion: matched tuples kept, one value change
	// when sums disagree. Unmatched singleton components contribute a.
	compScore := func(root int, matchedTuples int) float64 {
		if matchedTuples == 0 {
			return 0
		}
		s := float64(cntL[root]+cntR[root]) * c
		if math.Abs(sumL[root]-sumR[root]) > impactTol {
			s += bCost - c
		}
		return s
	}

	var selected []Evidence
	for _, mi := range order {
		m := inst.Matches[mi]
		if inst.Card.LeftAtMostOne && degL[m.L] >= 1 {
			continue
		}
		if inst.Card.RightAtMostOne && degR[m.R] >= 1 {
			continue
		}
		lNode, rNode := m.L, n1+m.R
		rl, rr := find(lNode), find(rNode)
		// Score before: each side contributes either its component score
		// (if already matched) or the deleted cost a for the lone tuple.
		var before float64
		if degL[m.L] == 0 && cntL[rl]+cntR[rl] == 1 {
			before += a
		} else {
			before += compScore(rl, 1)
		}
		if rl != rr {
			if degR[m.R] == 0 && cntL[rr]+cntR[rr] == 1 {
				before += a
			} else {
				before += compScore(rr, 1)
			}
		}
		// Tentatively merge.
		newSumL, newSumR := sumL[rl], sumR[rl]
		newCntL, newCntR := cntL[rl], cntR[rl]
		if rl != rr {
			newSumL += sumL[rr]
			newSumR += sumR[rr]
			newCntL += cntL[rr]
			newCntR += cntR[rr]
		}
		after := float64(newCntL+newCntR) * c
		if math.Abs(newSumL-newSumR) > impactTol {
			after += bCost - c
		}
		prob := clampProb(m.P)
		delta := (after - before) + math.Log(prob) - math.Log(1-prob)
		if delta <= 0 {
			continue
		}
		// Commit.
		if rl != rr {
			parent[rl] = rr
			sumL[rr] = newSumL
			sumR[rr] = newSumR
			cntL[rr] = newCntL
			cntR[rr] = newCntR
		}
		degL[m.L]++
		degR[m.R]++
		selected = append(selected, Evidence{L: m.L, R: m.R, P: m.P})
	}
	return ExplanationsFromEvidence(inst, selected)
}

// ExactCover implements the EXACTCOVER baseline: left tuples are elements,
// right tuples are sets, and an element can be covered by a set they share
// an initial match with. The integer program maximizes the number of
// selected sets plus covered elements, with each element covered at most
// once. Impacts and match probabilities are ignored, as in the paper's
// adaptation.
func ExactCover(inst *Instance, p Params) (*Explanations, error) {
	m := milp.NewModel("exactcover", milp.Maximize)
	setVar := make([]milp.Var, inst.T2.Len())
	for j := range setVar {
		setVar[j] = m.AddVar(0, 1, milp.Binary, "s")
		m.SetObjCoef(setVar[j], 1)
	}
	elemVar := make([]milp.Var, inst.T1.Len())
	for i := range elemVar {
		elemVar[i] = m.AddVar(0, 1, milp.Binary, "e")
		m.SetObjCoef(elemVar[i], 1)
	}
	edges := make(map[int][]int) // element -> candidate sets
	for _, match := range inst.Matches {
		edges[match.L] = append(edges[match.L], match.R)
	}
	for i, sets := range edges {
		var terms []milp.Term
		for _, j := range sets {
			terms = append(terms, milp.Term{Var: setVar[j], Coef: 1})
		}
		// Covered at most once (exactness) and only when some selected set
		// contains the element.
		m.AddConstr(terms, milp.LE, 1, "exact")
		withElem := append(append([]milp.Term{}, terms...), milp.Term{Var: elemVar[i], Coef: -1})
		m.AddConstr(withElem, milp.GE, 0, "cover")
	}
	for i := range elemVar {
		if len(edges[i]) == 0 {
			m.AddConstr([]milp.Term{{Var: elemVar[i], Coef: 1}}, milp.LE, 0, "uncoverable")
		}
	}
	opt := milp.Options{TimeLimit: p.SolverTimeLimit}
	sol, err := milp.Solve(m, opt)
	if err != nil {
		return nil, err
	}
	// Evidence: for each covered element pick its single selected set.
	var ev []Evidence
	usedL := make(map[int]bool)
	for _, match := range inst.Matches {
		if !sol.BoolValue(setVar[match.R]) || !sol.BoolValue(elemVar[match.L]) || usedL[match.L] {
			continue
		}
		usedL[match.L] = true
		ev = append(ev, Evidence{L: match.L, R: match.R, P: match.P})
	}
	return ExplanationsFromEvidence(inst, ev), nil
}

// FormalExp adapts the single-dataset explanation framework of Roy and
// Suciu (Section 5.1.3's FORMALEXP): compare the two results, then ask
// "why is Q1 high" on the larger side and "why is Q2 low" on the smaller
// side independently. Candidate explanations are equality predicates on
// the canonical (matching) attributes' token values; predicates are ranked
// by how much their intervention (removing satisfying tuples) moves the
// result toward the other query's answer. The union of the top-k
// predicates' tuples becomes the provenance-based explanation set; no
// evidence mapping is produced.
func FormalExp(inst *Instance, k int) *Explanations {
	out := &Explanations{}
	total1 := inst.T1.TotalImpact()
	total2 := inst.T2.TotalImpact()
	// Why-high on the larger side: removing tuples lowers its result.
	// Why-low is not actionable by intervention (removals only lower
	// aggregates), so FORMALEXP explains the high side — the adaptation's
	// inherent limitation the paper observes.
	highSide, highCanon := Left, inst.T1
	if total2 > total1 {
		highSide, highCanon = Right, inst.T2
	}
	gap := math.Abs(total1 - total2)
	covered := topKPredicateTuples(highCanon, k, gap)
	for _, t := range covered {
		out.Prov = append(out.Prov, ProvExpl{Side: highSide, Tuple: t})
	}
	sortExplanations(out)
	return out
}

// topKPredicateTuples mines single-token predicates over the canonical
// keys, scores each by its intervention effect (total impact removed,
// penalizing overshoot past the gap), and returns the tuples covered by
// the k best predicates.
func topKPredicateTuples(c *Canonical, k int, gap float64) []int {
	type pred struct {
		token  string
		tuples []int
		effect float64
	}
	byToken := make(map[string]*pred)
	for i, key := range c.Keys {
		for _, tok := range linkage.Tokenize(key) {
			p := byToken[tok]
			if p == nil {
				p = &pred{token: tok}
				byToken[tok] = p
			}
			p.tuples = append(p.tuples, i)
			p.effect += c.Impacts[i]
		}
	}
	preds := make([]*pred, 0, len(byToken))
	for _, p := range byToken {
		preds = append(preds, p)
	}
	// Rank by closeness of the intervention to the observed gap: an
	// explanation that removes exactly the difference is ideal.
	score := func(p *pred) float64 { return -math.Abs(p.effect - gap) }
	sort.Slice(preds, func(a, b int) bool {
		sa, sb := score(preds[a]), score(preds[b])
		if sa != sb {
			return sa > sb
		}
		return preds[a].token < preds[b].token
	})
	if k > len(preds) {
		k = len(preds)
	}
	seen := make(map[int]bool)
	var out []int
	for _, p := range preds[:k] {
		for _, t := range p.tuples {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Ints(out)
	return out
}
