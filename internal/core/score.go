package core

import (
	"math"
)

// logConsts returns the per-tuple log-probability constants of Equation 3:
// a = log(1−α) for deleted tuples, b = log α + log(1−β) for kept tuples
// with a corrected impact, c = log α + log β for untouched tuples. Since
// α, β > 0.5, a < b < c: the objective prefers fewer and cheaper
// explanations.
func logConsts(p Params) (a, b, c float64) {
	return logConstsOf(p.Alpha, p.Beta)
}

func logConstsOf(alpha, beta float64) (a, b, c float64) {
	alpha = clampProb(alpha)
	beta = clampProb(beta)
	a = math.Log(1 - alpha)
	b = math.Log(alpha) + math.Log(1-beta)
	c = math.Log(alpha) + math.Log(beta)
	return a, b, c
}

// tuplePriors resolves a tuple's priors (α, β), honoring the optional
// per-tuple overrides of footnote 5.
func (p Params) tuplePriors(side Side, tuple int) (alpha, beta float64) {
	alpha, beta = p.Alpha, p.Beta
	if p.AlphaOf != nil {
		if v := p.AlphaOf(side, tuple); v > 0.5 && v <= 1 {
			alpha = v
		}
	}
	if p.BetaOf != nil {
		if v := p.BetaOf(side, tuple); v > 0.5 && v <= 1 {
			beta = v
		}
	}
	return alpha, beta
}

// tupleConsts resolves the per-tuple constants of Equation 3.
func (p Params) tupleConsts(side Side, tuple int) (a, b, c float64) {
	return logConstsOf(p.tuplePriors(side, tuple))
}

// Score evaluates log Pr(E | T1, T2, Mtuple) per Equation 13 for an
// explanation set over the instance. It does not verify completeness; pair
// it with CheckComplete when the prior Pr(E) matters.
func Score(inst *Instance, e *Explanations, p Params) float64 {
	p = p.withDefaults()
	deleted := make(map[string]bool, len(e.Prov))
	for _, pe := range e.Prov {
		deleted[pe.Key()] = true
	}
	changed := make(map[string]bool, len(e.Val))
	for _, ve := range e.Val {
		changed[ve.Key()] = true
	}
	total := 0.0
	// Left before Right, always: the per-tuple log-probabilities accumulate
	// into a float sum, and float addition is not associative — iterating a
	// map literal here made the last bits of the score depend on Go's
	// random map order.
	for _, st := range [2]struct {
		side Side
		t    *Canonical
	}{{Left, inst.T1}, {Right, inst.T2}} {
		side, t := st.side, st.t
		for i := 0; i < t.Len(); i++ {
			a, b, c := p.tupleConsts(side, i)
			pk := ProvExpl{Side: side, Tuple: i}.Key()
			vk := ValExpl{Side: side, Tuple: i}.Key()
			switch {
			case deleted[pk] && changed[vk]:
				// Pr(t | t∈Δ, t∈δ) = 0: impossible combination.
				return math.Inf(-1)
			case deleted[pk]:
				total += a
			case changed[vk]:
				total += b
			default:
				total += c
			}
		}
	}
	selected := make(map[[2]int]bool, len(e.Evidence))
	for _, ev := range e.Evidence {
		selected[[2]int{ev.L, ev.R}] = true
	}
	for _, m := range inst.Matches {
		prob := clampProb(m.P)
		if selected[[2]int{m.L, m.R}] {
			total += math.Log(prob)
		} else {
			total += math.Log(1 - prob)
		}
	}
	return total
}
