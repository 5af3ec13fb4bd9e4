package milp

import (
	"context"
	"math"
	"time"
)

// This file implements the sparse revised simplex that branch-and-bound
// uses for every block chooseDense does not route to the dense tableau. The
// working problem keeps the dense solver's column layout — structural
// variables, slacks, artificials — but the constraint matrix lives in
// CSC/CSR form (sparse.go) and the basis inverse is an LU factorization
// plus an eta file (lu.go). Each iteration prices against a fresh BTRAN of
// the basic costs and pivots through one FTRAN, so per-pivot cost is
// proportional to nonzeros; the numerical-drift machinery of the dense
// path (incremental reduced costs, periodic recomputes) disappears — the
// only drifting state is the eta file, and the refactorization trigger is
// its length plus per-eta stability, not a warm-solve counter.

// lpNumeric is an engine-internal status: the factorization (or a pivot
// consistency check) failed numerically and the caller should rebuild from
// scratch. It never escapes to branch-and-bound.
const lpNumeric lpStatus = -1

// sparseLP is the revised-simplex working problem of one branch-and-bound
// block. It is built once per block and re-used by every node: cold solves
// reset the crash basis in place, warm solves apply one bound delta to the
// current optimal state.
type sparseLP struct {
	a        *sparseMatrix
	m, n, nv int
	lb, ub   []float64
	cost     []float64 // phase-specific costs
	realCost []float64
	status   []varStatus
	basis    []int // basis position → column
	posOf    []int // column → basis position, -1 if nonbasic
	xB       []float64

	lu   *luFactors
	etas []eta

	// Devex partial pricing (primalIterate). devexW holds the reference
	// weights (reset to 1 on every refactorization — a new reference
	// framework); cand is the candidate list the partial iterations price,
	// refilled by periodic full sweeps; candScore mirrors cand during a
	// refill. devexOff restores full Dantzig pricing (the differential
	// baseline for tests and benchmarks).
	devexW    []float64
	cand      []int32
	candScore []float64
	devexOff  bool

	// Scratch buffers (one solve at a time per instance).
	rowBuf   []float64 // row space: FTRAN scatter input, rhs residual
	posBuf   []float64 // basis-position space: c_B / e_r BTRAN input
	ordBuf   []float64 // LU-internal ordering scratch
	yRow     []float64 // BTRAN(c_B): duals
	y2Row    []float64 // BTRAN of the composite phase-1 costs
	rhoRow   []float64 // BTRAN(e_r): the dual pivot row's certificate
	alpha    []float64 // FTRAN'd entering column
	alphaRow []float64 // ρᵀA over all n columns

	maxIter   int
	pivots    int // lifetime simplex iterations (pivots + bound flips)
	refactors int // basis LU (re)factorizations
	luFill    int // total L+U nonzeros across factorizations
	certified int // dual-infeasible verdicts accepted via Farkas certificate
	deadline  time.Time
	ctx       context.Context
}

// newSparseLP builds the block's working problem from a minimization cost
// vector over nv structural variables and its rows. Bounds are installed
// per node by solveCold/applyBound.
func newSparseLP(c []float64, rows []rowData) *sparseLP {
	a := newSparseMatrix(len(c), rows)
	s := &sparseLP{
		a: a, m: a.m, n: a.n, nv: a.nv,
		lb:       make([]float64, a.n),
		ub:       make([]float64, a.n),
		cost:     make([]float64, a.n),
		realCost: make([]float64, a.n),
		status:   make([]varStatus, a.n),
		basis:    make([]int, a.m),
		posOf:    make([]int, a.n),
		xB:       make([]float64, a.m),
		rowBuf:   make([]float64, a.m),
		posBuf:   make([]float64, a.m),
		ordBuf:   make([]float64, a.m),
		yRow:     make([]float64, a.m),
		y2Row:    make([]float64, a.m),
		rhoRow:   make([]float64, a.m),
		alpha:    make([]float64, a.m),
		alphaRow: make([]float64, a.n),
		devexW:   make([]float64, a.n),
		maxIter:  20000 + 200*(a.m+a.nv),
		devexOff: disableDevex,
	}
	copy(s.realCost, c)
	s.devexReset()
	return s
}

// disableDevex switches every sparseLP built afterwards to full Dantzig
// pricing — the measurement hook for the devex-vs-Dantzig differential
// tests and iteration-count baselines.
var disableDevex = false

// expired reports whether the deadline passed or the context was canceled.
func (s *sparseLP) expired() bool {
	if s.ctx != nil && s.ctx.Err() != nil {
		return true
	}
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// maxEtasLen is the eta-file length that triggers a refactorization — the
// sparse analogue of the dense path's fixed warm-solve counter.
func (s *sparseLP) maxEtasLen() int { return 64 + s.m/4 }

// crash installs node bounds and seats the initial basis: every row takes
// its slack when the slack's sign admits the residual at the
// all-at-lower-bound point, and its artificial otherwise (with bounds
// spanning exactly [0, residual] so phase 1 can only shrink it). The
// resulting basis is diagonal and factorizes trivially.
func (s *sparseLP) crash(lbIn, ubIn []float64) {
	a := s.a
	copy(s.lb[:s.nv], lbIn)
	copy(s.ub[:s.nv], ubIn)
	for j := s.nv; j < a.artStart(); j++ {
		s.lb[j], s.ub[j] = 0, Inf
	}
	for j := a.artStart(); j < s.n; j++ {
		s.lb[j], s.ub[j] = 0, 0
	}
	for j := 0; j < s.n; j++ {
		s.status[j] = atLower
		s.posOf[j] = -1
	}
	for i := 0; i < s.m; i++ {
		res := a.rhs[i]
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			res -= a.rowVal[p] * s.lb[a.colIdx[p]]
		}
		seat := func(col int, val float64) {
			s.basis[i] = col
			s.posOf[col] = i
			s.status[col] = inBasis
			s.xB[i] = val
		}
		sc := a.slackOf[i]
		switch {
		case sc >= 0 && a.slackSign[i] > 0 && res >= 0: // LE
			seat(int(sc), res)
		case sc >= 0 && a.slackSign[i] < 0 && res <= 0: // GE
			seat(int(sc), -res)
		default:
			art := a.artStart() + i
			s.lb[art] = math.Min(0, res)
			s.ub[art] = math.Max(0, res)
			seat(art, res)
		}
	}
	s.etas = nil
}

// refactorBasis rebuilds the LU factors from the current basis, clears the
// eta file, and recomputes the basic values from scratch (which also
// contains xB drift). Reports false on a singular basis.
func (s *sparseLP) refactorBasis() bool {
	lu, ok := factorizeBasis(s.a, s.basis)
	if !ok {
		return false
	}
	s.lu = lu
	s.etas = nil
	s.refactors++
	s.luFill += lu.nnz
	s.recomputeXB()
	s.devexReset()
	return true
}

// devexReset starts a new devex reference framework: every weight back to
// 1. Run on every (re)factorization — both the eta-length trigger and the
// stability trigger inside pivot — and on snapshot restore, where the
// accumulated weights describe a basis trajectory the engine just left.
func (s *sparseLP) devexReset() {
	for j := range s.devexW {
		s.devexW[j] = 1
	}
}

// recomputeXB solves xB = B⁻¹(b − N·x_N) from the original data.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) recomputeXB() {
	a := s.a
	b := s.rowBuf
	copy(b, a.rhs)
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis {
			continue
		}
		v := s.valueOf(j)
		if v == 0 {
			continue
		}
		if j < s.nv {
			for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
				b[a.rowIdx[p]] -= a.colVal[p] * v
			}
		} else {
			i, cv := a.colEntry(j)
			b[i] -= cv * v
		}
	}
	s.lu.ftran(b, s.xB, s.ordBuf)
	applyEtasFtran(s.etas, s.xB)
}

// ftranCol computes α = B⁻¹·A_j into out.
func (s *sparseLP) ftranCol(j int, out []float64) {
	for i := range s.rowBuf {
		s.rowBuf[i] = 0
	}
	s.a.scatterCol(j, s.rowBuf)
	s.lu.ftran(s.rowBuf, out, s.ordBuf)
	applyEtasFtran(s.etas, out)
}

// btranVec solves Bᵀ y = c for a basis-position-space c (consumed) into
// the row-space out.
func (s *sparseLP) btranVec(c, out []float64) {
	applyEtasBtran(s.etas, c)
	s.lu.btran(c, out, s.ordBuf)
}

// duals computes y = B⁻ᵀ c_B for the current phase costs.
func (s *sparseLP) duals() []float64 {
	for i := 0; i < s.m; i++ {
		s.posBuf[i] = s.cost[s.basis[i]]
	}
	s.btranVec(s.posBuf, s.yRow)
	return s.yRow
}

// dualsComposite computes phase-1 scoring duals that count only the
// infeasibility still present: an artificial already driven to zero (but
// still basic, which bound flips leave behind all the time) keeps its row
// priced at full weight under the static phase-1 costs, attracting that
// row's columns into degenerate pivots — so its cost contribution is
// dropped (in the spirit of Maros' adaptive composite phase 1). Scoring
// heuristic only: eligibility and optimality always use the true costs.
func (s *sparseLP) dualsComposite() []float64 {
	art := s.a.artStart()
	for i := 0; i < s.m; i++ {
		k := s.basis[i]
		if k >= art && math.Abs(s.xB[i]) <= feasTol {
			s.posBuf[i] = 0
		} else {
			s.posBuf[i] = s.cost[k]
		}
	}
	s.btranVec(s.posBuf, s.y2Row)
	return s.y2Row
}

func (s *sparseLP) valueOf(j int) float64 {
	switch s.status[j] {
	case atLower:
		return s.lb[j]
	case atUpper:
		return s.ub[j]
	default:
		return s.xB[s.posOf[j]]
	}
}

// values extracts the structural solution.
func (s *sparseLP) values() []float64 {
	x := make([]float64, s.nv)
	for j := 0; j < s.nv; j++ {
		switch s.status[j] {
		case atLower:
			x[j] = s.lb[j]
		case atUpper:
			x[j] = s.ub[j]
		}
	}
	for i, b := range s.basis {
		if b < s.nv {
			x[b] = s.xB[i]
		}
	}
	return x
}

// objective evaluates the real costs at the current point.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) objective() float64 {
	obj := 0.0
	for j := 0; j < s.nv; j++ {
		if s.realCost[j] != 0 {
			obj += s.realCost[j] * s.valueOf(j)
		}
	}
	return obj
}

// phase1Objective sums the artificial infeasibility under phase-1 costs.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) phase1Objective() float64 {
	obj := 0.0
	for j := s.a.artStart(); j < s.n; j++ {
		if s.cost[j] != 0 {
			obj += s.cost[j] * s.valueOf(j)
		}
	}
	return obj
}

// solveCold resets to the node's bounds and runs phase 1 / phase 2 from
// the crash basis.
func (s *sparseLP) solveCold(lbIn, ubIn []float64) lpStatus {
	s.crash(lbIn, ubIn)
	if !s.refactorBasis() {
		return lpNumeric // diagonal crash basis: effectively unreachable
	}
	for j := range s.cost {
		s.cost[j] = 0
	}
	needPhase1 := false
	for i := 0; i < s.m; i++ {
		j := s.a.artStart() + i
		switch {
		case s.ub[j] > 0:
			s.cost[j] = 1
			needPhase1 = true
		case s.lb[j] < 0:
			s.cost[j] = -1
			needPhase1 = true
		}
	}
	if needPhase1 {
		if st := s.primalIterate(true); st != lpOptimal {
			return st
		}
		if s.phase1Objective() > 1e-6 {
			return lpInfeasible
		}
	}
	// Pin artificials to zero so they never re-enter with nonzero value.
	for j := s.a.artStart(); j < s.n; j++ {
		s.lb[j], s.ub[j] = 0, 0
	}
	copy(s.cost, s.realCost)
	return s.primalIterate(false)
}

// primalIterate runs bounded-variable primal simplex iterations until the
// current phase is optimal. Pricing recomputes reduced costs from a fresh
// BTRAN every iteration, so there is no incremental drift to contain, but
// it is partial: most iterations price only the devex candidate list
// (best d²/w wins), with full sweeps refilling the list periodically and
// whenever it runs dry. Optimality is only ever declared by a clean full
// sweep. Bland's rule engages after a run of degenerate steps exactly as
// in the dense path and forces full first-eligible sweeps.
func (s *sparseLP) primalIterate(phase1 bool) lpStatus {
	degenerate := 0
	bland := false
	limit := s.a.artStart()
	if phase1 {
		limit = s.n
	}
	s.cand = s.cand[:0]
	s.devexReset() // new phase, new objective: a fresh reference framework
	sinceFull := 0
	for iter := 0; iter < s.maxIter; iter++ {
		if iter&63 == 63 && s.expired() {
			return lpIterLimit
		}
		if len(s.etas) >= s.maxEtasLen() {
			if !s.refactorBasis() {
				return lpNumeric
			}
		}
		var enter int
		if bland || s.devexOff {
			// Full-sweep modes: Bland's rule takes the first eligible
			// column (anti-cycling keeps its termination argument);
			// devexOff restores Dantzig pricing as the differential
			// baseline. Both price against the true phase costs.
			s.cand = s.cand[:0]
			enter = s.fullPrice(s.duals(), nil, limit, bland, false)
		} else {
			// Eligibility always comes from the true phase costs (that is
			// what keeps every pivot improving and the phase terminating);
			// in phase 1 the *score* additionally weighs the composite
			// duals, steering selection toward infeasibility that is
			// actually left instead of rows whose zero-valued artificials
			// still carry full static cost.
			y := s.duals()
			var y2 []float64
			if phase1 {
				y2 = s.dualsComposite()
			}
			if sinceFull >= devexFullEvery {
				s.cand = s.cand[:0]
			}
			enter = s.priceCandidates(y, y2, limit)
			if enter >= 0 {
				sinceFull++
			} else {
				enter = s.fullPrice(y, y2, limit, false, true)
				sinceFull = 0
			}
		}
		if enter < 0 {
			return lpOptimal
		}
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1
		}
		s.ftranCol(enter, s.alpha)
		// Ratio test: the entering variable travels until it hits its own
		// opposite bound or drives a basic variable to one of its bounds.
		tBound := s.ub[enter] - s.lb[enter]
		tRow := math.Inf(1)
		leaveRow := -1
		leaveAt := atLower
		for i := 0; i < s.m; i++ {
			delta := -s.alpha[i] * dir
			k := s.basis[i]
			var ti float64
			var at varStatus
			switch {
			case delta > pivotTol:
				if math.IsInf(s.ub[k], 1) {
					continue
				}
				ti = (s.ub[k] - s.xB[i]) / delta
				at = atUpper
			case delta < -pivotTol:
				ti = (s.lb[k] - s.xB[i]) / delta
				at = atLower
			default:
				continue
			}
			if ti < 0 {
				ti = 0
			}
			if ti < tRow-feasTol || (ti < tRow+feasTol && leaveRow >= 0 && math.Abs(s.alpha[i]) > math.Abs(s.alpha[leaveRow])) {
				tRow = ti
				leaveRow = i
				leaveAt = at
			}
		}
		step := math.Min(tBound, tRow)
		if math.IsInf(step, 1) {
			return lpUnbounded
		}
		s.applyStep(step, dir)
		s.pivots++
		if tBound <= tRow {
			if s.status[enter] == atLower {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
			// Bound flip: no basis change, so the devex weights stand.
		} else {
			if !s.devexOff && !bland {
				// Weight maintenance must see the pre-pivot basis; if the
				// pivot then refactorizes (tiny diagonal) the reset simply
				// starts a new reference framework over these updates.
				s.devexPrimalUpdate(enter, leaveRow)
			}
			s.pivot(leaveRow, enter, dir, step, leaveAt)
		}
		if step > 1e-12 {
			degenerate = 0
			bland = false
		} else {
			degenerate++
			if degenerate > 400 {
				bland = true
			}
		}
	}
	return lpIterLimit
}

// devexFullEvery caps how many partial-pricing iterations may run between
// full sweeps, so reduced costs of non-candidate columns are never stale
// for long.
const devexFullEvery = 5

// devexCandCap sizes the candidate list relative to the phase's pricing
// range: big enough to survive a run of pivots without a refill, small
// enough that a partial iteration prices a fraction of the columns.
func devexCandCap(limit int) int {
	c := 16 + limit/32
	if c > limit {
		c = limit
	}
	return c
}

// devexScore is the pricing criterion for one eligible column: the true
// violation squared over the devex reference weight, except that when
// composite scoring duals y2 are supplied (phase 1) the violation under
// them dominates — columns attacking remaining infeasibility win, with a
// vanishing Dantzig term keeping every eligible column selectable when no
// column attracts under y2.
func (s *sparseLP) devexScore(j int, st varStatus, viol float64, y2 []float64) float64 {
	sc := viol * viol
	if y2 != nil {
		d2 := s.cost[j] - s.a.dotCol(y2, j)
		var v2 float64
		if st == atLower && d2 < 0 {
			v2 = -d2
		} else if st == atUpper && d2 > 0 {
			v2 = d2
		}
		sc = v2*v2 + 1e-12*sc
	}
	return sc / s.devexW[j]
}

// fullPrice scans every nonbasic column of the phase. Under Bland's rule
// it returns the first eligible column; otherwise the best by the devex
// criterion d²/w (plain Dantzig when the weights are all 1), and when
// refill is set it also rebuilds the candidate list with the
// highest-scoring columns for the partial iterations that follow.
// Eligibility always uses the true duals y; y2, when non-nil, only shifts
// the scores (see devexScore).
func (s *sparseLP) fullPrice(y, y2 []float64, limit int, bland, refill bool) int {
	if refill {
		s.cand = s.cand[:0]
		s.candScore = s.candScore[:0]
	}
	capN := devexCandCap(limit)
	enter := -1
	bestScore := 0.0
	minIdx := -1 // lowest-scoring slot of the (full) candidate list
	for j := 0; j < limit; j++ {
		st := s.status[j]
		if st == inBasis || s.ub[j]-s.lb[j] < feasTol {
			continue
		}
		d := s.cost[j] - s.a.dotCol(y, j)
		var viol float64
		if st == atLower && d < -costTol {
			viol = -d
		} else if st == atUpper && d > costTol {
			viol = d
		} else {
			continue
		}
		if bland {
			return j
		}
		score := s.devexScore(j, st, viol, y2)
		if score > bestScore {
			bestScore = score
			enter = j
		}
		if !refill {
			continue
		}
		if len(s.cand) < capN {
			s.cand = append(s.cand, int32(j))
			s.candScore = append(s.candScore, score)
			if minIdx < 0 || score < s.candScore[minIdx] {
				minIdx = len(s.cand) - 1
			}
		} else if score > s.candScore[minIdx] {
			s.cand[minIdx] = int32(j)
			s.candScore[minIdx] = score
			for k, sc := range s.candScore {
				if sc < s.candScore[minIdx] {
					minIdx = k
				}
			}
		}
	}
	return enter
}

// priceCandidates prices only the candidate list with fresh reduced
// costs, compacting away columns that entered the basis or stopped being
// attractive, and returns the best remaining column by the devex
// criterion. -1 means the list ran dry — the caller must run a full sweep
// before it may declare optimality. Eligibility always uses the true
// duals y; y2, when non-nil, only shifts the scores (see devexScore).
func (s *sparseLP) priceCandidates(y, y2 []float64, limit int) int {
	enter := -1
	best := 0.0
	w := 0
	for _, cj := range s.cand {
		j := int(cj)
		if j >= limit {
			continue
		}
		st := s.status[j]
		if st == inBasis || s.ub[j]-s.lb[j] < feasTol {
			continue
		}
		d := s.cost[j] - s.a.dotCol(y, j)
		var viol float64
		if st == atLower && d < -costTol {
			viol = -d
		} else if st == atUpper && d > costTol {
			viol = d
		} else {
			continue
		}
		s.cand[w] = cj
		w++
		if score := s.devexScore(j, st, viol, y2); score > best {
			best = score
			enter = j
		}
	}
	s.cand = s.cand[:w]
	return enter
}

// devexPrimalUpdate maintains the reference weights through a primal
// basis change: one BTRAN(e_r) recovers the pivot row ρᵀA by a pass over
// the CSR rows where ρ is nonzero (the same trick the dual pivot uses), so
// every nonbasic column's weight updates at sparse cost, and the leaving
// variable inherits the entering column's weight scaled by the pivot
// element. Weights only ratchet upward between reference resets — the
// devex invariant.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) devexPrimalUpdate(enter, r int) {
	aq := s.alpha[r]
	if math.Abs(aq) < pivotTol {
		return
	}
	a := s.a
	wq := s.devexW[enter]
	for i := 0; i < s.m; i++ {
		s.posBuf[i] = 0
	}
	s.posBuf[r] = 1
	s.btranVec(s.posBuf, s.rhoRow)
	for j := range s.alphaRow {
		s.alphaRow[j] = 0
	}
	for i := 0; i < s.m; i++ {
		ri := s.rhoRow[i]
		if ri == 0 {
			continue
		}
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			s.alphaRow[a.colIdx[p]] += ri * a.rowVal[p]
		}
		if sc := a.slackOf[i]; sc >= 0 {
			s.alphaRow[sc] = ri * a.slackSign[i]
		}
		s.alphaRow[a.artStart()+i] = ri
	}
	inv := wq / (aq * aq)
	for j := 0; j < s.n; j++ {
		if j == enter || s.status[j] == inBasis {
			continue
		}
		arj := s.alphaRow[j]
		if arj == 0 {
			continue
		}
		if w := arj * arj * inv; w > s.devexW[j] {
			s.devexW[j] = w
		}
	}
	if inv > 1 {
		s.devexW[s.basis[r]] = inv
	} else {
		s.devexW[s.basis[r]] = 1
	}
}

// applyStep moves every basic value by the entering column's step
// (xB = b' − Σ α·x_N). s.alpha must hold the entering column.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) applyStep(step, dir float64) {
	if step == 0 {
		return
	}
	for i := 0; i < s.m; i++ {
		if s.alpha[i] != 0 {
			s.xB[i] -= s.alpha[i] * dir * step
		}
	}
}

// pivot brings column enter into basis position r (the departing column
// rests at leaveAt) and appends the update to the eta file. A tiny eta
// diagonal triggers an immediate refactorization — the stability half of
// the refactorization policy.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) pivot(r, enter int, dir, t float64, leaveAt varStatus) {
	leaving := s.basis[r]
	s.status[leaving] = leaveAt
	s.posOf[leaving] = -1
	enterVal := s.lb[enter]
	if dir < 0 {
		enterVal = s.ub[enter]
	}
	enterVal += dir * t

	diag := s.alpha[r]
	nz := 0
	for i := 0; i < s.m; i++ {
		if i != r && s.alpha[i] != 0 {
			nz++
		}
	}
	idx := make([]int32, 0, nz)
	val := make([]float64, 0, nz)
	for i := 0; i < s.m; i++ {
		if i != r && s.alpha[i] != 0 {
			idx = append(idx, int32(i))
			val = append(val, s.alpha[i])
		}
	}
	s.etas = append(s.etas, eta{pos: int32(r), diag: diag, idx: idx, val: val})

	s.basis[r] = enter
	s.posOf[enter] = r
	s.status[enter] = inBasis
	s.xB[r] = enterVal
	if math.Abs(diag) < etaStabTol {
		// Best effort: if the explicit refactorization fails the eta file
		// stays valid (just ill-conditioned) and the iteration limit or a
		// later consistency check catches persistent trouble.
		s.refactorBasis()
	}
}

// dualIterate runs dual simplex pivots until every basic value is back
// within its bounds (lpOptimal), a Farkas certificate proves the node
// infeasible (lpInfeasible), the deadline/context expires or the pivot cap
// is hit (lpIterLimit), or numerical trouble demands a cold rebuild
// (lpNumeric). The dual pivot row ρᵀA is recomputed from the sparse matrix
// every iteration, never maintained incrementally.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) dualIterate(maxPiv int) lpStatus {
	a := s.a
	for iter := 0; iter < maxPiv; iter++ {
		if iter&63 == 63 && s.expired() {
			return lpIterLimit
		}
		if len(s.etas) >= s.maxEtasLen() {
			if !s.refactorBasis() {
				return lpNumeric
			}
		}
		// Leaving variable: the basic value with the largest bound
		// violation.
		r := -1
		below := false
		worst := feasTol
		for i := 0; i < s.m; i++ {
			k := s.basis[i]
			if v := s.lb[k] - s.xB[i]; v > worst {
				worst, r, below = v, i, true
			}
			if v := s.xB[i] - s.ub[k]; v > worst {
				worst, r, below = v, i, false
			}
		}
		if r < 0 {
			return lpOptimal
		}
		// ρ = B⁻ᵀ e_r, then the pivot row ρᵀA over every column — fresh
		// from the CSR matrix, so this row doubles as a drift-independent
		// infeasibility certificate.
		for i := 0; i < s.m; i++ {
			s.posBuf[i] = 0
		}
		s.posBuf[r] = 1
		s.btranVec(s.posBuf, s.rhoRow)
		for j := range s.alphaRow {
			s.alphaRow[j] = 0
		}
		for i := 0; i < s.m; i++ {
			ri := s.rhoRow[i]
			if ri == 0 {
				continue
			}
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				s.alphaRow[a.colIdx[p]] += ri * a.rowVal[p]
			}
			if sc := a.slackOf[i]; sc >= 0 {
				s.alphaRow[sc] = ri * a.slackSign[i]
			}
			s.alphaRow[a.artStart()+i] = ri
		}
		y := s.duals()
		// Dual ratio test over admissible nonbasic columns, with reduced
		// costs computed on the fly for candidates only.
		enter := -1
		var best, tEnter float64
		for j := 0; j < s.n; j++ {
			st := s.status[j]
			if st == inBasis || s.ub[j]-s.lb[j] < feasTol {
				continue
			}
			t := s.alphaRow[j]
			var ok bool
			if below {
				ok = (st == atLower && t < -pivotTol) || (st == atUpper && t > pivotTol)
			} else {
				ok = (st == atLower && t > pivotTol) || (st == atUpper && t < -pivotTol)
			}
			if !ok {
				continue
			}
			ratio := (s.cost[j] - a.dotCol(y, j)) / t
			switch {
			case enter < 0:
			case below && ratio > best+costTol:
			case !below && ratio < best-costTol:
			case math.Abs(ratio-best) <= costTol && math.Abs(t) > math.Abs(tEnter):
				// Near-tie: the larger pivot magnitude is numerically safer.
			default:
				continue
			}
			enter, best, tEnter = j, ratio, t
		}
		if enter < 0 {
			// No column can absorb the violation without breaking dual
			// feasibility. Verify the certificate against the original data
			// before trusting it (no cold re-proof needed when it holds).
			if s.farkasCertified() {
				s.certified++
				return lpInfeasible
			}
			return lpNumeric
		}
		s.ftranCol(enter, s.alpha)
		if math.Abs(s.alpha[r]) < pivotTol || s.alpha[r]*s.alphaRow[enter] <= 0 {
			// FTRAN and BTRAN disagree about the pivot: the eta file has
			// drifted. Refactorize and redo the iteration from fresh
			// factors; if the factors are already fresh, give up warm.
			if len(s.etas) == 0 || !s.refactorBasis() {
				return lpNumeric
			}
			continue
		}
		k := s.basis[r]
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1
		}
		target, leaveAt := s.ub[k], atUpper
		if below {
			target, leaveAt = s.lb[k], atLower
		}
		if !s.devexOff {
			// Maintain the devex weights through the dual pivot: alphaRow
			// already holds the full pivot row, so every nonbasic column
			// updates for free (no extra BTRAN), keeping the weights
			// meaningful for the primal polish that follows warm starts.
			aq := s.alphaRow[enter]
			winv := s.devexW[enter] / (aq * aq)
			for j := 0; j < s.n; j++ {
				if j == enter || s.status[j] == inBasis {
					continue
				}
				arj := s.alphaRow[j]
				if arj == 0 {
					continue
				}
				if w := arj * arj * winv; w > s.devexW[j] {
					s.devexW[j] = w
				}
			}
			if winv > 1 {
				s.devexW[k] = winv
			} else {
				s.devexW[k] = 1
			}
		}
		t := (s.xB[r] - target) / (s.alpha[r] * dir)
		if t < 0 {
			t = 0 // numerical guard: never step backwards
		}
		s.applyStep(t, dir)
		s.pivots++
		s.pivot(r, enter, dir, t, leaveAt)
	}
	return lpIterLimit
}

// farkasCertified verifies a dual-infeasibility certificate directly
// against the original constraint data: for the certificate vector
// ρ (rhoRow) the identity (ρᵀA)·x = ρᵀb holds for every solution of
// Ax = b, so when the range of (ρᵀA)·x over the bound box excludes ρᵀb no
// feasible point exists. alphaRow already holds ρᵀA recomputed from the
// sparse matrix, which makes the check independent of factorization
// drift — this replaces the dense path's cold phase-1 re-proof of every
// warm dual-infeasible verdict.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *sparseLP) farkasCertified() bool {
	rhoB := 0.0
	for i := 0; i < s.m; i++ {
		rhoB += s.rhoRow[i] * s.a.rhs[i]
	}
	lo, hi := 0.0, 0.0
	for j := 0; j < s.n; j++ {
		aj := s.alphaRow[j]
		if aj == 0 {
			continue
		}
		if aj > 0 {
			lo += aj * s.lb[j]
			hi += aj * s.ub[j]
		} else {
			lo += aj * s.ub[j]
			hi += aj * s.lb[j]
		}
	}
	tol := 1e-6 * (1 + math.Abs(rhoB))
	return rhoB < lo-tol || rhoB > hi+tol
}

// applyBound replaces variable j's bounds, keeping basic values consistent
// when j is nonbasic at a bound that moved (one FTRAN). Reports false when
// the new domain is empty.
//
//lint:floatexact exact-zero test on a bound delta decides whether any update work exists at all
func (s *sparseLP) applyBound(j int, lo, hi float64) bool {
	if lo > hi+feasTol {
		return false
	}
	var delta float64
	switch s.status[j] {
	case atLower:
		delta = lo - s.lb[j]
	case atUpper:
		delta = hi - s.ub[j]
	}
	if delta != 0 {
		s.ftranCol(j, s.alpha)
		for i := 0; i < s.m; i++ {
			if s.alpha[i] != 0 {
				s.xB[i] -= s.alpha[i] * delta
			}
		}
	}
	s.lb[j], s.ub[j] = lo, hi
	return true
}

// sparseSnap captures a solved sparseLP state for the second child of a
// branch. Bounds, statuses, basis, and basic values are copied (O(n), not
// O(m·n)); the factorization is shared by reference and the eta file by
// prefix — both immutable, with capped slices making any append after
// restore copy-on-write.
type sparseSnap struct {
	lb, ub, xB []float64
	status     []varStatus
	basis      []int
	lu         *luFactors
	etas       []eta
	cells      int
}

// snapshot copies the current state. The caller accounts cells against the
// warm-start memory budget.
func (s *sparseLP) snapshot() *sparseSnap {
	return &sparseSnap{
		lb:     append([]float64(nil), s.lb...),
		ub:     append([]float64(nil), s.ub...),
		xB:     append([]float64(nil), s.xB...),
		status: append([]varStatus(nil), s.status...),
		basis:  append([]int(nil), s.basis...),
		lu:     s.lu,
		etas:   s.etas[:len(s.etas):len(s.etas)],
		cells:  3*s.n + 2*s.m,
	}
}

// restore adopts a snapshot's buffers (zero-copy; the snapshot is dead
// afterwards). Unlike the dense path, dimensions never change — every row
// always owns an artificial column — so restore cannot fail.
func (s *sparseLP) restore(sn *sparseSnap) {
	s.lb, s.ub, s.xB = sn.lb, sn.ub, sn.xB
	s.status, s.basis = sn.status, sn.basis
	s.lu = sn.lu
	s.etas = sn.etas[:len(sn.etas):len(sn.etas)]
	for j := range s.posOf {
		s.posOf[j] = -1
	}
	for i, b := range s.basis {
		s.posOf[b] = i
	}
	// The snapshot was taken after phase 2; make sure the costs agree.
	copy(s.cost, s.realCost)
	// The weights describe the basis trajectory the engine just abandoned;
	// start a fresh devex reference framework for the restored state.
	s.devexReset()
}
