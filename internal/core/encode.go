package core

import (
	"math"
	"slices"

	"explain3d/internal/linkage"
	"explain3d/internal/milp"
)

// subProblem is one optimization unit: a subset of canonical tuples on
// each side plus the initial matches among them. Tuple ids are global
// canonical indexes.
type subProblem struct {
	left, right []int
	matches     []linkage.Match
}

// worker is one solve worker's model and scratch, reused from sub-problem
// to sub-problem of one SolveInstanceCached call. place selects a
// sub-problem; split, encode, warmStart and read then work on it.
type worker struct {
	inst *Instance
	p    Params
	// a, b, c are the call-wide constants of Equation 3; without
	// per-tuple overrides every tuple has them, so they are computed once.
	a, b, c   float64
	overrides bool
	m         *milp.Model
	sub       *subProblem
	// posL/posR map a tuple id to its position in sub.left/sub.right;
	// only the placed sub-problem's entries are current.
	posL, posR []int32
	split
	encoding
	terms []milp.Term
	// Per component of the placed sub-problem: its solution and memo
	// entry; and the components claimed, joined and searched again.
	sols                   []*compSol
	ents                   []*compEntry
	claimed, joined, retry []int32
	key                    []byte
}

// newWorker returns a worker for inst with an empty model and position
// arrays sized to inst's canonical relations.
func newWorker(inst *Instance, p Params) *worker {
	w := &worker{
		inst: inst, p: p, overrides: p.AlphaOf != nil || p.BetaOf != nil,
		m:    milp.NewModel("exp3d", milp.Maximize),
		posL: make([]int32, inst.T1.Len()), posR: make([]int32, inst.T2.Len()),
	}
	w.a, w.b, w.c = logConsts(p)
	return w
}

// place makes sub the worker's current sub-problem: one position pass
// that the split, the keys and the impact bounds share.
func (w *worker) place(sub *subProblem) {
	w.sub = sub
	for k, id := range sub.left {
		w.posL[id] = int32(k)
	}
	for k, id := range sub.right {
		w.posR[id] = int32(k)
	}
}

// split lays out the placed sub-problem's match-connected components in
// flat (CSR) arrays. Each component is a set of tuples joined by matches
// and encodes to exactly one block of the sub-problem's MILP: no row spans
// two components. Component c holds the left tuples
// left[leftAt[c]:leftAt[c+1]] and the right tuples
// right[rightAt[c]:rightAt[c+1]] (global ids) and the matches
// match[matchAt[c]:matchAt[c+1]] (indexes into sub.matches), each in sub
// order. Components are numbered by their first tuple in sub order, left
// tuples first, which is the order the whole sub-problem's blocks take.
//
// A tuple slot is a left tuple's index into left, or len(left) plus a right
// tuple's index into right; a match slot is an index into match.
type split struct {
	nc                       int32
	leftAt, rightAt, matchAt []int32
	left, right              []int
	match                    []int32
	// lslot/rslot are each match slot's endpoints as indexes into
	// left/right.
	lslot, rslot []int32
	// comp and slot give each node (a left position, or len(sub.left)
	// plus a right position) its component and its tuple slot.
	comp, slot []int32
	// mslot gives each sub.matches index its match slot.
	mslot       []int32
	parent, cur []int32
}

// splitSub splits the placed sub-problem into its components.
func (w *worker) splitSub() {
	s, sub := &w.split, w.sub
	nL, nR := len(sub.left), len(sub.right)
	n := nL + nR
	parent := grow(&s.parent, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, m := range sub.matches {
		a, b := find(w.posL[m.L]), find(int32(nL)+w.posR[m.R])
		if a != b {
			parent[a] = b
		}
	}
	// A root's comp entry is its component, numbered at its component's
	// first node; every other node copies its root's.
	comp := grow(&s.comp, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := int32(0)
	for v := int32(0); v < int32(n); v++ {
		r := find(v)
		if comp[r] < 0 {
			comp[r] = nc
			nc++
		}
		comp[v] = comp[r]
	}
	s.nc = nc

	leftAt, rightAt, matchAt := grow(&s.leftAt, int(nc)+1), grow(&s.rightAt, int(nc)+1), grow(&s.matchAt, int(nc)+1)
	clear(leftAt)
	clear(rightAt)
	clear(matchAt)
	for k := 0; k < nL; k++ {
		leftAt[comp[k]+1]++
	}
	for k := nL; k < n; k++ {
		rightAt[comp[k]+1]++
	}
	for _, m := range sub.matches {
		matchAt[comp[w.posL[m.L]]+1]++
	}
	for c := int32(1); c <= nc; c++ {
		leftAt[c] += leftAt[c-1]
		rightAt[c] += rightAt[c-1]
		matchAt[c] += matchAt[c-1]
	}

	slot, cur := grow(&s.slot, n), grow(&s.cur, int(nc))
	left, right := grow(&s.left, nL), grow(&s.right, nR)
	copy(cur, leftAt)
	for k, id := range sub.left {
		c := comp[k]
		left[cur[c]], slot[k] = id, cur[c]
		cur[c]++
	}
	copy(cur, rightAt)
	for k, id := range sub.right {
		c := comp[nL+k]
		right[cur[c]], slot[nL+k] = id, int32(nL)+cur[c]
		cur[c]++
	}
	nM := len(sub.matches)
	match, lslot, rslot, mslot := grow(&s.match, nM), grow(&s.lslot, nM), grow(&s.rslot, nM), grow(&s.mslot, nM)
	copy(cur, matchAt)
	for mi, m := range sub.matches {
		l, r := w.posL[m.L], int32(nL)+w.posR[m.R]
		c := comp[l]
		ms := cur[c]
		cur[c]++
		match[ms], lslot[ms], rslot[ms], mslot[mi] = int32(mi), slot[l], slot[r]-int32(nL), ms
	}
}

// encoding maps the variables of the last encode back onto the split:
// tuple variables by tuple slot and match variables by match slot, current
// for the components encoded; vars and rows count what each encoded
// component added, in batch order (rows include constant rows, which no
// block holds).
type encoding struct {
	x, y, iv   []milp.Var // provenance, impact-unchanged and refined impact I*
	z, zi      []milp.Var // evidence selection and its linearized z·I*
	adjAt, adj []int32    // each tuple slot's match slots, in match order
	vars, rows []int
	// warmStart's scratch; impactBounds shares sums.
	warm, sums []float64
	deg        []int32
	order      []int32
	sel        []bool
}

// encode implements Algorithm 1: it translates the components batch of
// the split sub-problem into a MILP whose optimum is, component by
// component, the most probable complete explanation set (Section 3.2). It
// resets the worker's model and encodes one component after another, so
// batch[k] is the model's k-th block. lo and hi bound every refined
// impact; they are the whole sub-problem's (impactBounds), so a component
// encodes the same however its sub-problem is split into batches. No
// variable or row is named (names only decorate errors).
func (w *worker) encode(batch []int32, lo, hi float64) {
	m, s, inst := w.m, &w.split, w.inst
	m.Reset()
	nL, nT, nM := int32(len(s.left)), len(s.left)+len(s.right), len(s.match)
	e := &w.encoding
	xs, ys, ivs := grow(&e.x, nT), grow(&e.y, nT), grow(&e.iv, nT)
	zs, zis := grow(&e.z, nM), grow(&e.zi, nM)
	e.vars, e.rows = e.vars[:0], e.rows[:0]

	// Each tuple slot's match slots, in match order.
	adjAt, cur := grow(&e.adjAt, nT+1), grow(&s.cur, nT)
	clear(adjAt)
	for ms := range s.match {
		adjAt[s.lslot[ms]+1]++
		adjAt[nL+s.rslot[ms]+1]++
	}
	for t := 1; t <= nT; t++ {
		adjAt[t] += adjAt[t-1]
	}
	adj := grow(&e.adj, 2*nM)
	copy(cur, adjAt)
	for ms := range s.match {
		l, r := s.lslot[ms], nL+s.rslot[ms]
		adj[cur[l]], adj[cur[r]] = int32(ms), int32(ms)
		cur[l]++
		cur[r]++
	}

	// terms is the shared scratch buffer for constraint rows; AddConstr
	// copies (and merges) what it is given, so one buffer serves every row.
	terms := w.terms[:0]
	addTuple := func(t int32, side Side, id int, impact float64) {
		a, b, c := w.a, w.b, w.c
		if w.overrides {
			a, b, c = w.p.tupleConsts(side, id)
		}
		x := m.AddVar(0, 1, milp.Binary, "")
		y := m.AddVar(0, 1, milp.Binary, "")
		iv := m.AddVar(lo, hi, milp.Continuous, "")
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
		xs[t], ys[t], ivs[t] = x, y, iv
	}
	// cover adds tuple slot t's valid-mapping cardinality row (Definition
	// 3.2 / Equation 10) when atMostOne, and the completeness row: every
	// kept tuple participates in the mapping (otherwise a singleton
	// component breaks impact equality).
	cover := func(t int32, atMostOne bool) {
		terms = terms[:0]
		for _, ms := range adj[adjAt[t]:adjAt[t+1]] {
			terms = append(terms, milp.Term{Var: zs[ms], Coef: 1})
		}
		if atMostOne {
			m.AddConstr(terms, milp.LE, 1, "")
		}
		terms = append(terms, milp.Term{Var: xs[t], Coef: 1})
		m.AddConstr(terms, milp.GE, 1, "")
	}
	// balance adds the impact-equality row of grouping tuple slot t
	// (Definition 3.3 / Equations 11–12): Σ z·I*_partner = I*_t over its
	// matches. A deleted tuple has no selected matches, so the row pins
	// its (otherwise unused) I* to 0; no (1−x)·I* product is needed.
	balance := func(t int32, partner func(ms int32) int32) {
		terms = terms[:0]
		for _, ms := range adj[adjAt[t]:adjAt[t+1]] {
			zi := m.ProductBinaryCont(zs[ms], ivs[partner(ms)], lo, hi, "")
			zis[ms] = zi
			terms = append(terms, milp.Term{Var: zi, Coef: 1})
		}
		terms = append(terms, milp.Term{Var: ivs[t], Coef: -1})
		m.AddConstr(terms, milp.EQ, 0, "")
	}
	leftOf := func(ms int32) int32 { return s.lslot[ms] }
	rightOf := func(ms int32) int32 { return nL + s.rslot[ms] }

	for _, c := range batch {
		v0, r0 := m.NumVars(), m.NumRows()
		for t := s.leftAt[c]; t < s.leftAt[c+1]; t++ {
			id := s.left[t]
			addTuple(t, Left, id, inst.T1.Impacts[id])
		}
		for t := s.rightAt[c]; t < s.rightAt[c+1]; t++ {
			id := s.right[t]
			addTuple(nL+t, Right, id, inst.T2.Impacts[id])
		}
		// Matches: selection variables with Equation 9's guards and objective.
		for ms := s.matchAt[c]; ms < s.matchAt[c+1]; ms++ {
			z := m.AddVar(0, 1, milp.Binary, "")
			terms = append(terms[:0], milp.Term{Var: z, Coef: 1}, milp.Term{Var: xs[s.lslot[ms]], Coef: 1})
			m.AddConstr(terms, milp.LE, 1, "")
			terms = append(terms[:0], milp.Term{Var: z, Coef: 1}, milp.Term{Var: xs[nL+s.rslot[ms]], Coef: 1})
			m.AddConstr(terms, milp.LE, 1, "")
			prob := clampProb(w.sub.matches[s.match[ms]].P)
			m.SetObjCoef(z, math.Log(prob)-math.Log(1-prob))
			m.AddObjConst(math.Log(1 - prob))
			// Evidence selection drives the rest of the solution: branch on
			// it first so x/y/w follow by propagation.
			m.SetBranchPriority(z, 2)
			zs[ms] = z
		}
		for t := s.leftAt[c]; t < s.leftAt[c+1]; t++ {
			cover(t, inst.Card.LeftAtMostOne)
		}
		for t := s.rightAt[c]; t < s.rightAt[c+1]; t++ {
			cover(nL+t, inst.Card.RightAtMostOne)
		}
		// Group by the unconstrained (aggregating) side: with left degree
		// ≤ 1 each right tuple's impact is the sum of its partners'.
		if inst.Card.LeftAtMostOne {
			for t := s.rightAt[c]; t < s.rightAt[c+1]; t++ {
				balance(nL+t, leftOf)
			}
		} else {
			for t := s.leftAt[c]; t < s.leftAt[c+1]; t++ {
				balance(t, rightOf)
			}
		}
		e.vars = append(e.vars, m.NumVars()-v0)
		e.rows = append(e.rows, m.NumRows()-r0)
	}
	w.terms = terms
}

// warmStart builds a feasible assignment for the last encode from a greedy
// evidence selection per component (highest probability first, respecting
// cardinality): selected matches keep their endpoints, unmatched tuples are
// deleted, grouping-side impacts absorb their partners' sums.
// Branch-and-bound uses it as the initial incumbent, so solver budgets
// degrade gracefully to greedy-quality solutions instead of failing. The
// result is scratch, valid until the next warmStart.
func (w *worker) warmStart(batch []int32) []float64 {
	s, e, inst, sub := &w.split, &w.encoding, w.inst, w.sub
	nL, nT, nM := int32(len(s.left)), len(s.left)+len(s.right), len(s.match)
	x := grow(&e.warm, w.m.NumVars())
	clear(x)
	deg, sums, sel := grow(&e.deg, nT), grow(&e.sums, nT), grow(&e.sel, nM)
	groupByRight := inst.Card.LeftAtMostOne
	for _, c := range batch {
		l0, l1 := s.leftAt[c], s.leftAt[c+1]
		r0, r1 := nL+s.rightAt[c], nL+s.rightAt[c+1]
		m0, m1 := s.matchAt[c], s.matchAt[c+1]
		order := e.order[:0]
		for ms := m0; ms < m1; ms++ {
			order = append(order, ms)
		}
		slices.SortStableFunc(order, func(a, b int32) int {
			pa, pb := sub.matches[s.match[a]].P, sub.matches[s.match[b]].P
			switch {
			case pa > pb:
				return -1
			case pa < pb:
				return 1
			}
			return 0
		})
		e.order = order
		clear(deg[l0:l1])
		clear(deg[r0:r1])
		for _, ms := range order {
			sel[ms] = false
			if sub.matches[s.match[ms]].P < 0.5 {
				continue
			}
			l, r := s.lslot[ms], nL+s.rslot[ms]
			if inst.Card.LeftAtMostOne && deg[l] >= 1 {
				continue
			}
			if inst.Card.RightAtMostOne && deg[r] >= 1 {
				continue
			}
			sel[ms] = true
			deg[l]++
			deg[r]++
		}
		// Tuple variables; impact(t) is tuple slot t's recorded impact.
		impact := func(t int32) float64 {
			if t < nL {
				return inst.T1.Impacts[s.left[t]]
			}
			return inst.T2.Impacts[s.right[t-nL]]
		}
		setTuple := func(t int32, grouping bool) {
			if deg[t] == 0 {
				x[e.x[t]] = 1
				if !grouping {
					x[e.iv[t]] = impact(t) // unconstrained; any in-bounds value
				}
				return
			}
			x[e.y[t]] = 1
			x[e.iv[t]] = impact(t)
		}
		for t := l0; t < l1; t++ {
			setTuple(t, !groupByRight)
		}
		for t := r0; t < r1; t++ {
			setTuple(t, groupByRight)
		}
		// Grouping-side impacts follow the selected partners' sums; flip y
		// to 0 where the sum disagrees with the recorded impact.
		g0, g1 := r0, r1
		if !groupByRight {
			g0, g1 = l0, l1
		}
		clear(sums[g0:g1])
		for ms := m0; ms < m1; ms++ {
			if sel[ms] {
				if groupByRight {
					sums[nL+s.rslot[ms]] += impact(s.lslot[ms])
				} else {
					sums[s.lslot[ms]] += impact(nL + s.rslot[ms])
				}
			}
		}
		for t := g0; t < g1; t++ {
			if deg[t] == 0 {
				x[e.iv[t]] = 0 // pinned by the impact-equality row
				continue
			}
			x[e.iv[t]] = sums[t]
			if math.Abs(sums[t]-impact(t)) > impactTol {
				x[e.y[t]] = 0
			}
		}
		// Match variables.
		for ms := m0; ms < m1; ms++ {
			if !sel[ms] {
				continue
			}
			x[e.z[ms]] = 1
			if groupByRight {
				x[e.zi[ms]] = x[e.iv[s.lslot[ms]]]
			} else {
				x[e.zi[ms]] = x[e.iv[nL+s.rslot[ms]]]
			}
		}
	}
	return x
}

// Tuple outcomes in a compSol.
const (
	tupleKept uint8 = iota
	tupleDeleted
	tupleRefined
)

// compSol is one solved component in component-local coordinates: each
// tuple's outcome (left tuples, then right, in sub order) and refined
// impact, and whether each match is evidence; vars, rows and dense are its
// encoding's size and LP engine, replayed with it.
type compSol struct {
	kind       []uint8
	impact     []float64
	evid       []bool
	vars, rows int
	dense      bool
}

// read decodes batch[k] = c of the last encode from sol (Line 12 of
// Algorithm 1).
func (w *worker) read(sol *milp.Solution, k int, c int32) *compSol {
	s, e, inst := &w.split, &w.encoding, w.inst
	nL := int32(len(s.left))
	l0, l1 := s.leftAt[c], s.leftAt[c+1]
	r0, r1 := nL+s.rightAt[c], nL+s.rightAt[c+1]
	nt := int(l1 - l0 + r1 - r0)
	cs := &compSol{
		kind: make([]uint8, nt), impact: make([]float64, nt), evid: make([]bool, s.matchAt[c+1]-s.matchAt[c]),
		vars: e.vars[k], rows: e.rows[k], dense: sol.DenseBlock[k],
	}
	j := 0
	readTuple := func(t int32, impact float64) {
		switch {
		case sol.BoolValue(e.x[t]):
			cs.kind[j] = tupleDeleted
		case !sol.BoolValue(e.y[t]):
			refined := sol.Value(e.iv[t])
			if math.Abs(refined-impact) > impactTol {
				cs.kind[j], cs.impact[j] = tupleRefined, refined
			}
		}
		j++
	}
	for t := l0; t < l1; t++ {
		readTuple(t, inst.T1.Impacts[s.left[t]])
	}
	for t := r0; t < r1; t++ {
		readTuple(t, inst.T2.Impacts[s.right[t-nL]])
	}
	for ms := s.matchAt[c]; ms < s.matchAt[c+1]; ms++ {
		cs.evid[ms-s.matchAt[c]] = sol.BoolValue(e.z[ms])
	}
	return cs
}

// assemble returns the placed sub-problem's explanations, read from sols,
// its components' solutions, as a fragment in sub-local coordinates, in
// decode order: left tuples, right tuples and matches, each in sub order.
func (w *worker) assemble(sols []*compSol) localFrag {
	s, sub := &w.split, w.sub
	nL := int32(len(sub.left))
	var lf localFrag
	tuple := func(side Side, node int32) {
		c, t := s.comp[node], s.slot[node]
		// j is t's index among its component's tuples, left then right.
		j, pos := t-s.leftAt[c], node
		if side == Right {
			j, pos = s.leftAt[c+1]-s.leftAt[c]+t-nL-s.rightAt[c], node-nL
		}
		switch cs := sols[c]; cs.kind[j] {
		case tupleDeleted:
			lf.prov = append(lf.prov, localProv{side: side, pos: pos})
		case tupleRefined:
			lf.val = append(lf.val, localVal{side: side, pos: pos, newImpact: cs.impact[j]})
		}
	}
	for k := range sub.left {
		tuple(Left, int32(k))
	}
	for k := range sub.right {
		tuple(Right, nL+int32(k))
	}
	for mi, m := range sub.matches {
		c := s.comp[w.posL[m.L]]
		if sols[c].evid[s.mslot[mi]-s.matchAt[c]] {
			lf.evid = append(lf.evid, int32(mi))
		}
	}
	return lf
}

// impactBounds computes safe lower/upper bounds for refined impacts within
// the placed sub-problem. With non-negative impacts (the overwhelmingly
// common case) a refined impact never needs to exceed the larger of (a)
// any original impact and (b) any grouping-side tuple's total partner
// impact, so the big-M rows stay tight and the LP relaxation strong.
// Negative impacts fall back to conservative symmetric bounds. Partner sums
// accumulate in scratch indexed by the grouping side's position.
func (w *worker) impactBounds() (lo, hi float64) {
	inst, sub := w.inst, w.sub
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
		groupSum = grow(&w.sums, len(sub.right))
		clear(groupSum)
		for _, m := range sub.matches {
			groupSum[w.posR[m.R]] += inst.T1.Impacts[m.L]
		}
	} else {
		groupSum = grow(&w.sums, len(sub.left))
		clear(groupSum)
		for _, m := range sub.matches {
			groupSum[w.posL[m.L]] += inst.T2.Impacts[m.R]
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

// grow returns *buf resized to n, reallocating only when its capacity is
// short; the contents are stale.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
