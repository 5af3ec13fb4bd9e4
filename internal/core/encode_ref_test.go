package core

import (
	"math"
	"sort"

	"explain3d/internal/milp"
)

// encode_ref_test.go keeps the encoder that encoded a whole sub-problem
// into one model (all left tuples, then all right tuples, then matches),
// with its greedy warm start and decoder, as the reference the
// component-wise pipeline must reproduce bit for bit.

// refEncoded maps a solved MILP back onto the sub-problem.
type refEncoded struct {
	model  *milp.Model
	sub    *subProblem
	xL, xR []milp.Var // provenance-based explanation indicators
	yL, yR []milp.Var // impact-unchanged indicators
	iL, iR []milp.Var // refined impacts I*
	z      []milp.Var // evidence selection per match
	zi     []milp.Var // linearized z·I* per match (grouping side)
	posL   map[int]int
	posR   map[int]int
}

// refEncode implements Algorithm 1: translate a sub-problem of the EXP-3D
// instance into a MILP whose optimum is the most probable complete
// explanation set (Section 3.2). It resets m, a maximization model a
// worker keeps across sub-problems, and fills it; the result is valid until
// the next encode into m. It reads the canonical relations' impact arrays
// directly and names no variable or row (names only decorate errors).
func refEncode(m *milp.Model, inst *Instance, sub *subProblem, p Params) *refEncoded {
	m.Reset()
	enc := &refEncoded{model: m, sub: sub}

	posL := make(map[int]int, len(sub.left))
	for k, id := range sub.left {
		posL[id] = k
	}
	posR := make(map[int]int, len(sub.right))
	for k, id := range sub.right {
		posR[id] = k
	}
	enc.posL, enc.posR = posL, posR

	// Impact bounds: wide enough for any refined impact in this
	// sub-problem (a grouped tuple can absorb every partner's impact).
	lo, hi := refImpactBounds(inst, sub, posL, posR)

	// terms is the shared scratch buffer for constraint rows; AddConstr
	// copies (and merges) what it is given, so one buffer serves every row.
	terms := make([]milp.Term, 0, 8)

	addTuple := func(side Side, id int) (x, y, iv milp.Var) {
		a, b, c := p.tupleConsts(side, id)
		var impact float64
		if side == Left {
			impact = inst.T1.Impacts[id]
		} else {
			impact = inst.T2.Impacts[id]
		}
		x = m.AddVar(0, 1, milp.Binary, "")
		y = m.AddVar(0, 1, milp.Binary, "")
		iv = m.AddVar(lo, hi, milp.Continuous, "")
		m.SetBranchPriority(x, 1)
		// Equation 7: y = 1 forces I* = I.
		m.IndicatorEq(y, iv, impact, lo, hi, "")
		// Objective (Equation 8). The paper linearizes the bilinear term
		// (1−x)·y with big-M rows; the constraint y ≤ 1−x makes the plain
		// linear form exact: deleted tuples force y = 0, so the term is
		// a·x + (c−b)·y + b, matching Equation 3 case by case.
		terms = append(terms[:0], milp.Term{Var: y, Coef: 1}, milp.Term{Var: x, Coef: 1})
		m.AddConstr(terms, milp.LE, 1, "")
		m.SetObjCoef(x, a-b)
		m.SetObjCoef(y, c-b)
		m.AddObjConst(b)
		return x, y, iv
	}

	enc.xL = make([]milp.Var, 0, len(sub.left))
	enc.yL = make([]milp.Var, 0, len(sub.left))
	enc.iL = make([]milp.Var, 0, len(sub.left))
	for _, id := range sub.left {
		x, y, iv := addTuple(Left, id)
		enc.xL = append(enc.xL, x)
		enc.yL = append(enc.yL, y)
		enc.iL = append(enc.iL, iv)
	}
	enc.xR = make([]milp.Var, 0, len(sub.right))
	enc.yR = make([]milp.Var, 0, len(sub.right))
	enc.iR = make([]milp.Var, 0, len(sub.right))
	for _, id := range sub.right {
		x, y, iv := addTuple(Right, id)
		enc.xR = append(enc.xR, x)
		enc.yR = append(enc.yR, y)
		enc.iR = append(enc.iR, iv)
	}

	// Matches: selection variables with Equation 9's guards and objective.
	type matchVars struct {
		z    milp.Var
		l, r int // local positions
	}
	mv := make([]matchVars, 0, len(sub.matches))
	enc.z = make([]milp.Var, 0, len(sub.matches))
	for _, match := range sub.matches {
		l, r := posL[match.L], posR[match.R]
		z := m.AddVar(0, 1, milp.Binary, "")
		terms = append(terms[:0], milp.Term{Var: z, Coef: 1}, milp.Term{Var: enc.xL[l], Coef: 1})
		m.AddConstr(terms, milp.LE, 1, "")
		terms = append(terms[:0], milp.Term{Var: z, Coef: 1}, milp.Term{Var: enc.xR[r], Coef: 1})
		m.AddConstr(terms, milp.LE, 1, "")
		prob := clampProb(match.P)
		m.SetObjCoef(z, math.Log(prob)-math.Log(1-prob))
		m.AddObjConst(math.Log(1 - prob))
		// Evidence selection drives the rest of the solution: branch on it
		// first so x/y/w follow by propagation.
		m.SetBranchPriority(z, 2)
		enc.z = append(enc.z, z)
		mv = append(mv, matchVars{z: z, l: l, r: r})
	}

	// Valid-mapping cardinality (Definition 3.2 / Equation 10) and the
	// completeness requirement that every kept tuple participates in the
	// mapping (otherwise a singleton component breaks impact equality).
	matchesOfL := make([][]int, len(sub.left))
	matchesOfR := make([][]int, len(sub.right))
	for mi, v := range mv {
		matchesOfL[v.l] = append(matchesOfL[v.l], mi)
		matchesOfR[v.r] = append(matchesOfR[v.r], mi)
	}
	for l := range sub.left {
		terms = terms[:0]
		for _, mi := range matchesOfL[l] {
			terms = append(terms, milp.Term{Var: mv[mi].z, Coef: 1})
		}
		if inst.Card.LeftAtMostOne {
			m.AddConstr(terms, milp.LE, 1, "")
		}
		terms = append(terms, milp.Term{Var: enc.xL[l], Coef: 1})
		m.AddConstr(terms, milp.GE, 1, "")
	}
	for r := range sub.right {
		terms = terms[:0]
		for _, mi := range matchesOfR[r] {
			terms = append(terms, milp.Term{Var: mv[mi].z, Coef: 1})
		}
		if inst.Card.RightAtMostOne {
			m.AddConstr(terms, milp.LE, 1, "")
		}
		terms = append(terms, milp.Term{Var: enc.xR[r], Coef: 1})
		m.AddConstr(terms, milp.GE, 1, "")
	}

	// Impact equality (Definition 3.3 / Equations 11–12). Group by the
	// unconstrained (aggregating) side: with left degree ≤ 1 each right
	// tuple j must satisfy Σ_i z_ij·I*_i = I*_j. A deleted tuple has no
	// selected matches, so the equation pins its (otherwise unused) I* to
	// 0 — no (1−x)·I* product is needed.
	groupByRight := inst.Card.LeftAtMostOne
	enc.zi = make([]milp.Var, len(sub.matches))
	if groupByRight {
		for r := range sub.right {
			terms = terms[:0]
			for _, mi := range matchesOfR[r] {
				zi := m.ProductBinaryCont(mv[mi].z, enc.iL[mv[mi].l], lo, hi, "")
				enc.zi[mi] = zi
				terms = append(terms, milp.Term{Var: zi, Coef: 1})
			}
			terms = append(terms, milp.Term{Var: enc.iR[r], Coef: -1})
			m.AddConstr(terms, milp.EQ, 0, "")
		}
	} else {
		for l := range sub.left {
			terms = terms[:0]
			for _, mi := range matchesOfL[l] {
				zi := m.ProductBinaryCont(mv[mi].z, enc.iR[mv[mi].r], lo, hi, "")
				enc.zi[mi] = zi
				terms = append(terms, milp.Term{Var: zi, Coef: 1})
			}
			terms = append(terms, milp.Term{Var: enc.iL[l], Coef: -1})
			m.AddConstr(terms, milp.EQ, 0, "")
		}
	}
	return enc
}

// refWarmStart builds a feasible assignment from a greedy evidence selection
// (highest probability first, respecting cardinality): selected matches
// keep their endpoints, unmatched tuples are deleted, grouping-side
// impacts absorb their partners' sums. Branch-and-bound uses it as the
// initial incumbent, so solver budgets degrade gracefully to
// greedy-quality solutions instead of failing. All accumulators are slices
// indexed by local position — no map churn per sub-problem.
func refWarmStart(inst *Instance, enc *refEncoded) []float64 {
	sub := enc.sub
	x := make([]float64, enc.model.NumVars())
	order := make([]int, len(sub.matches))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sub.matches[order[a]].P > sub.matches[order[b]].P
	})
	degL := make([]int, len(sub.left))
	degR := make([]int, len(sub.right))
	selected := make([]bool, len(sub.matches))
	for _, mi := range order {
		mt := sub.matches[mi]
		if mt.P < 0.5 {
			continue
		}
		l, r := enc.posL[mt.L], enc.posR[mt.R]
		if inst.Card.LeftAtMostOne && degL[l] >= 1 {
			continue
		}
		if inst.Card.RightAtMostOne && degR[r] >= 1 {
			continue
		}
		selected[mi] = true
		degL[l]++
		degR[r]++
	}
	groupByRight := inst.Card.LeftAtMostOne
	// Tuple variables.
	for k, id := range sub.left {
		if degL[k] == 0 {
			x[enc.xL[k]] = 1
			if groupByRight {
				x[enc.iL[k]] = inst.T1.Impacts[id] // unconstrained; any in-bounds value
			}
			continue
		}
		x[enc.yL[k]] = 1
		x[enc.iL[k]] = inst.T1.Impacts[id]
	}
	for k, id := range sub.right {
		if degR[k] == 0 {
			x[enc.xR[k]] = 1
			if !groupByRight {
				x[enc.iR[k]] = inst.T2.Impacts[id]
			}
			continue
		}
		x[enc.yR[k]] = 1
		x[enc.iR[k]] = inst.T2.Impacts[id]
	}
	// Grouping-side impacts follow the selected partners' sums; flip y to
	// 0 where the sum disagrees with the recorded impact.
	if groupByRight {
		sums := make([]float64, len(sub.right))
		for mi, sel := range selected {
			if sel {
				sums[enc.posR[sub.matches[mi].R]] += inst.T1.Impacts[sub.matches[mi].L]
			}
		}
		for k, id := range sub.right {
			if degR[k] == 0 {
				x[enc.iR[k]] = 0 // pinned by the impact-equality row
				continue
			}
			s := sums[k]
			x[enc.iR[k]] = s
			if math.Abs(s-inst.T2.Impacts[id]) > impactTol {
				x[enc.yR[k]] = 0
			}
		}
	} else {
		sums := make([]float64, len(sub.left))
		for mi, sel := range selected {
			if sel {
				sums[enc.posL[sub.matches[mi].L]] += inst.T2.Impacts[sub.matches[mi].R]
			}
		}
		for k, id := range sub.left {
			if degL[k] == 0 {
				x[enc.iL[k]] = 0
				continue
			}
			s := sums[k]
			x[enc.iL[k]] = s
			if math.Abs(s-inst.T1.Impacts[id]) > impactTol {
				x[enc.yL[k]] = 0
			}
		}
	}
	// Match variables.
	for mi, sel := range selected {
		if !sel {
			continue
		}
		mt := sub.matches[mi]
		x[enc.z[mi]] = 1
		if groupByRight {
			x[enc.zi[mi]] = x[enc.iL[enc.posL[mt.L]]]
		} else {
			x[enc.zi[mi]] = x[enc.iR[enc.posR[mt.R]]]
		}
	}
	return x
}

// refImpactBounds computes safe lower/upper bounds for refined impacts within
// a sub-problem. With non-negative impacts (the overwhelmingly common
// case) a refined impact never needs to exceed the larger of (a) any
// original impact and (b) any grouping-side tuple's total partner impact,
// so the big-M rows stay tight and the LP relaxation strong. Negative
// impacts fall back to conservative symmetric bounds. Partner sums
// accumulate in a slice indexed by the grouping side's local position.
func refImpactBounds(inst *Instance, sub *subProblem, posL, posR map[int]int) (lo, hi float64) {
	maxOwn, sum := 0.0, 1.0
	neg := false
	for _, id := range sub.left {
		v := inst.T1.Impacts[id]
		sum += math.Abs(v)
		if v < 0 {
			neg = true
		}
		if math.Abs(v) > maxOwn {
			maxOwn = math.Abs(v)
		}
	}
	for _, id := range sub.right {
		v := inst.T2.Impacts[id]
		sum += math.Abs(v)
		if v < 0 {
			neg = true
		}
		if math.Abs(v) > maxOwn {
			maxOwn = math.Abs(v)
		}
	}
	if neg {
		return -sum, sum
	}
	// Partner sums on the grouping side.
	var groupSum []float64
	if inst.Card.LeftAtMostOne {
		groupSum = make([]float64, len(sub.right))
		for _, m := range sub.matches {
			groupSum[posR[m.R]] += inst.T1.Impacts[m.L]
		}
	} else {
		groupSum = make([]float64, len(sub.left))
		for _, m := range sub.matches {
			groupSum[posL[m.L]] += inst.T2.Impacts[m.R]
		}
	}
	hi = maxOwn
	for _, s := range groupSum {
		if s > hi {
			hi = s
		}
	}
	return 0, hi + 1
}

// refDecode converts a MILP solution into explanations (Line 12 of Algorithm
// 1). It returns explanation fragments in global canonical indexes.
func refDecode(inst *Instance, enc *refEncoded, sol *milp.Solution) *Explanations {
	out := &Explanations{}
	readSide := func(side Side, ids []int, xs, ys, ivs []milp.Var, impacts []float64) {
		for k, id := range ids {
			if sol.BoolValue(xs[k]) {
				out.Prov = append(out.Prov, ProvExpl{Side: side, Tuple: id})
				continue
			}
			if !sol.BoolValue(ys[k]) {
				refined := sol.Value(ivs[k])
				if math.Abs(refined-impacts[id]) > impactTol {
					out.Val = append(out.Val, ValExpl{Side: side, Tuple: id, NewImpact: refined})
				}
			}
		}
	}
	readSide(Left, enc.sub.left, enc.xL, enc.yL, enc.iL, inst.T1.Impacts)
	readSide(Right, enc.sub.right, enc.xR, enc.yR, enc.iR, inst.T2.Impacts)
	for mi, z := range enc.z {
		if sol.BoolValue(z) {
			m := enc.sub.matches[mi]
			out.Evidence = append(out.Evidence, Evidence{L: m.L, R: m.R, P: m.P})
		}
	}
	return out
}
