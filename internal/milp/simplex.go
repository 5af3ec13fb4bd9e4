package milp

import (
	"context"
	"math"
	"time"
)

// lpStatus is the outcome of a linear-relaxation solve.
type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
	lpIterLimit
)

const (
	feasTol  = 1e-7 // feasibility tolerance
	costTol  = 1e-7 // reduced-cost tolerance
	pivotTol = 1e-9 // minimum acceptable pivot magnitude
)

// varStatus tracks where a column currently lives.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	inBasis
)

// simplex is a dense-tableau bounded-variable primal simplex. Columns are
// the structural variables followed by slacks and artificials. The tableau
// T is kept as B⁻¹A; xB holds the current basic values.
type simplex struct {
	m, n     int // rows, total columns
	nStruct  int // structural columns
	artStart int // first artificial column
	T        [][]float64
	lb, ub   []float64
	cost     []float64 // phase-specific costs
	realCost []float64
	status   []varStatus
	basis    []int // column basic in each row
	rowOf    []int // basis row of a column, -1 if nonbasic
	xB       []float64
	d        []float64 // reduced costs, maintained incrementally
	maxIter  int
	pivots   int             // lifetime simplex iterations (pivots + bound flips)
	deadline time.Time       // zero = no limit
	ctx      context.Context // nil = never canceled
	buf      []float64       // backing array T's rows and the float arrays were carved from
}

// tableaus is one SolveContext call's free list of dropped simplexes:
// newSimplex rebuilds one in place, reusing its slices and backing array.
type tableaus struct{ free []*simplex }

// get returns a simplex whose backing array is zeroed and of length size,
// recycled if a free one's fits; if none does, it lets them all go rather
// than keep every size seen.
func (p *tableaus) get(size int) *simplex {
	for i, s := range p.free {
		if cap(s.buf) >= size {
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			s.buf = s.buf[:size]
			clear(s.buf)
			return s
		}
	}
	p.free = nil
	return &simplex{buf: make([]float64, size)}
}

// put takes back a simplex that nothing reads any more.
func (p *tableaus) put(s *simplex) {
	if s != nil {
		p.free = append(p.free, s)
	}
}

// newSimplex builds the working problem from a (minimization) model slice:
// costs c over nv structural vars with bounds lb/ub, and rows. It crashes
// an initial basis from slacks wherever the slack's sign admits the
// initial residual, reserving artificial columns — and hence phase-1
// effort — for the rows that genuinely need them.
//
// The simplex comes from free, and its owner returns it there when it
// drops it. T's rows, lb, ub, cost, realCost, d and xB are carved from
// one backing array of m·n + 5n + m floats, which the build relies on get
// zeroing; T, status, basis and rowOf keep their storage but not their
// contents, which the build overwrites in full.
func newSimplex(c, lb, ub []float64, rows []rowData, free *tableaus) *simplex {
	m := len(rows)
	nv := len(c)
	// residual is a row's slack at the all-at-lower-bound starting point; a
	// row needs an artificial unless its slack's sign admits it.
	residual := func(r rowData) float64 {
		res := r.rhs
		for _, t := range r.terms {
			res -= t.Coef * lb[t.Var]
		}
		return res
	}
	needArt := func(r rowData, res float64) bool {
		return !(r.sense == LE && res >= 0) && !(r.sense == GE && res <= 0)
	}
	nSlack, nArt := 0, 0
	for _, r := range rows {
		if needArt(r, residual(r)) {
			nArt++
		}
		if r.sense != EQ {
			nSlack++
		}
	}
	n := nv + nSlack + nArt
	s := free.get(m*n + 5*n + m)
	buf := s.buf
	carve := func(k int) []float64 {
		out := buf[:k:k]
		buf = buf[k:]
		return out
	}
	*s = simplex{
		m: m, n: n, nStruct: nv, artStart: nv + nSlack,
		buf: s.buf, T: grow(&s.T, m), status: grow(&s.status, n),
		basis: grow(&s.basis, m), rowOf: grow(&s.rowOf, n),
		maxIter: 20000 + 200*(m+nv),
	}
	for i := range s.T {
		s.T[i] = carve(n)
	}
	s.lb, s.ub, s.cost, s.realCost, s.d = carve(n), carve(n), carve(n), carve(n), carve(n)
	s.xB = carve(m)
	for j := range s.rowOf {
		s.rowOf[j] = -1
	}
	copy(s.realCost, c)
	copy(s.lb, lb)
	copy(s.ub, ub)
	for j := nv; j < n; j++ {
		s.lb[j] = 0
		s.ub[j] = Inf
	}
	for j := 0; j < n; j++ {
		s.status[j] = atLower
	}
	seat := func(i, col int, val float64) {
		s.basis[i] = col
		s.rowOf[col] = i
		s.status[col] = inBasis
		s.xB[i] = val
	}
	slack := nv
	nextArt := s.artStart
	for i, r := range rows {
		row := s.T[i]
		for _, t := range r.terms {
			row[t.Var] += t.Coef
		}
		res := residual(r)
		art := needArt(r, res)
		sign := 1.0
		switch r.sense {
		case LE:
			row[slack] = 1
			if !art {
				seat(i, slack, res)
			}
			slack++
		case GE:
			row[slack] = -1
			if !art {
				// Normalize so the basic (slack) column becomes +1.
				sign = -1
				seat(i, slack, -res)
			}
			slack++
		}
		if art {
			if res >= 0 {
				row[nextArt] = 1
			} else {
				row[nextArt] = -1
				sign = -1
			}
			seat(i, nextArt, math.Abs(res))
			nextArt++
		}
		if sign < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
		}
	}
	return s
}

// solve runs phase 1 then phase 2 and reports the outcome. On lpOptimal the
// structural solution is available via values().
func (s *simplex) solve() lpStatus {
	// Phase 1: minimize the sum of artificials.
	for j := range s.cost {
		s.cost[j] = 0
	}
	for j := s.artStart; j < s.n; j++ {
		s.cost[j] = 1
	}
	st := s.iterate(true)
	if st == lpIterLimit {
		return lpIterLimit
	}
	if s.phaseObjective() > 1e-6 {
		return lpInfeasible
	}
	// Pin artificials to zero so they never re-enter with nonzero value.
	for j := s.artStart; j < s.n; j++ {
		s.ub[j] = 0
	}
	// Phase 2: real costs.
	copy(s.cost, s.realCost)
	for j := s.nStruct; j < s.n; j++ {
		s.cost[j] = 0
	}
	return s.iterate(false)
}

// phaseObjective evaluates the current phase costs at the current point.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *simplex) phaseObjective() float64 {
	obj := 0.0
	for j := 0; j < s.n; j++ {
		if s.cost[j] != 0 {
			obj += s.cost[j] * s.valueOf(j)
		}
	}
	return obj
}

func (s *simplex) valueOf(j int) float64 {
	switch s.status[j] {
	case atLower:
		return s.lb[j]
	case atUpper:
		return s.ub[j]
	default:
		return s.xB[s.rowOf[j]]
	}
}

// values extracts the structural solution.
func (s *simplex) values() []float64 {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		switch s.status[j] {
		case atLower:
			x[j] = s.lb[j]
		case atUpper:
			x[j] = s.ub[j]
		}
	}
	for i, b := range s.basis {
		if b < s.nStruct {
			x[b] = s.xB[i]
		}
	}
	return x
}

// objective evaluates the real costs at the current point.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *simplex) objective() float64 {
	obj := 0.0
	for j := 0; j < s.nStruct; j++ {
		if s.realCost[j] != 0 {
			obj += s.realCost[j] * s.valueOf(j)
		}
	}
	return obj
}

// computeReducedCosts refreshes d = c - c_B·T from scratch. It runs at
// phase starts and periodically to contain numerical drift; in between,
// pivot maintains d incrementally.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *simplex) computeReducedCosts() {
	copy(s.d, s.cost)
	for i, b := range s.basis {
		cb := s.cost[b]
		if cb == 0 {
			continue
		}
		row := s.T[i]
		for j := 0; j < s.n; j++ {
			if row[j] != 0 {
				s.d[j] -= cb * row[j]
			}
		}
	}
}

// iterate pivots until optimal for the current phase. phase1 permits
// artificial columns to participate; phase 2 freezes them.
func (s *simplex) iterate(phase1 bool) lpStatus {
	degenerate := 0
	bland := false
	s.computeReducedCosts()
	for iter := 0; iter < s.maxIter; iter++ {
		if iter%512 == 511 {
			s.computeReducedCosts() // contain incremental drift
		}
		if iter%64 == 63 && s.expired() {
			return lpIterLimit
		}
		d := s.d
		enter := -1
		bestViol := costTol
		limit := s.n
		if !phase1 {
			limit = s.artStart
		}
		for j := 0; j < limit; j++ {
			if s.status[j] == inBasis {
				continue
			}
			if s.ub[j]-s.lb[j] < feasTol {
				continue // fixed column
			}
			var viol float64
			if s.status[j] == atLower && d[j] < -costTol {
				viol = -d[j]
			} else if s.status[j] == atUpper && d[j] > costTol {
				viol = d[j]
			} else {
				continue
			}
			if bland {
				enter = j
				break
			}
			if viol > bestViol {
				bestViol = viol
				enter = j
			}
		}
		if enter < 0 {
			return lpOptimal
		}
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1
		}
		// Ratio test: the entering variable may travel until it hits its own
		// opposite bound (tBound) or drives a basic variable to one of its
		// bounds (tRow).
		tBound := s.ub[enter] - s.lb[enter]
		tRow := math.Inf(1)
		leaveRow := -1
		leaveAt := atLower
		for i := 0; i < s.m; i++ {
			delta := -s.T[i][enter] * dir
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
			// Prefer strictly smaller ratios; on near-ties take the larger
			// pivot magnitude for numerical stability.
			if ti < tRow-feasTol || (ti < tRow+feasTol && leaveRow >= 0 && math.Abs(s.T[i][enter]) > math.Abs(s.T[leaveRow][enter])) {
				tRow = ti
				leaveRow = i
				leaveAt = at
			}
		}
		step := math.Min(tBound, tRow)
		if math.IsInf(step, 1) {
			return lpUnbounded
		}
		s.applyStep(enter, dir, step)
		s.pivots++
		if tBound <= tRow {
			// Pure bound flip (no basis change).
			if s.status[enter] == atLower {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
		} else {
			s.pivot(leaveRow, enter, dir, step, leaveAt)
		}
		// Anti-cycling: the objective improves by |d_enter|·step, so a run
		// of zero-step iterations signals degeneracy; switch to Bland's
		// rule, which guarantees termination.
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

// applyStep moves the entering column's value by dir·step, updating every
// basic value (xB depends on the nonbasic point as xB = b' − T·x_N).
// Shared by the primal and dual pivoting loops.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *simplex) applyStep(enter int, dir, step float64) {
	if step == 0 {
		return
	}
	for i := 0; i < s.m; i++ {
		if s.T[i][enter] != 0 {
			s.xB[i] -= s.T[i][enter] * dir * step
		}
	}
}

// pivot brings column `enter` into the basis at row r; the departing
// column rests at leaveAt. The entering variable's new value is its
// starting bound plus dir·t.
//
//lint:floatexact sparse kernel: tests stored coefficients for structural zero, which is exact in IEEE arithmetic
func (s *simplex) pivot(r, enter int, dir, t float64, leaveAt varStatus) {
	leaving := s.basis[r]
	s.status[leaving] = leaveAt
	enterVal := s.lb[enter]
	if dir < 0 {
		enterVal = s.ub[enter]
	}
	enterVal += dir * t

	row := s.T[r]
	piv := row[enter]
	inv := 1.0 / piv
	for j := 0; j < s.n; j++ {
		row[j] *= inv
	}
	row[enter] = 1 // exact
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.T[i][enter]
		if f == 0 {
			continue
		}
		ri := s.T[i]
		for j := 0; j < s.n; j++ {
			if row[j] != 0 {
				ri[j] -= f * row[j]
			}
		}
		ri[enter] = 0 // exact
	}
	// Maintain reduced costs: eliminate the entering column from d.
	if f := s.d[enter]; f != 0 {
		for j := 0; j < s.n; j++ {
			if row[j] != 0 {
				s.d[j] -= f * row[j]
			}
		}
		s.d[enter] = 0 // exact
	}
	s.basis[r] = enter
	s.rowOf[enter] = r
	s.rowOf[leaving] = -1
	s.status[enter] = inBasis
	s.xB[r] = enterVal
}

// maxTableauCells caps dense-tableau memory (~320MB of float64); larger
// relaxations are refused, which branch-and-bound reports as a budget
// limit. Partitioned workloads never approach this.
const maxTableauCells = 40 << 20

// expired reports whether the deadline passed or the context was canceled.
func (s *simplex) expired() bool {
	if s.ctx != nil && s.ctx.Err() != nil {
		return true
	}
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// solveLP solves min c·x subject to rows and bounds; it returns the status,
// objective, and structural solution. A zero deadline means no limit;
// cancellation of ctx is reported as an iteration limit.
func solveLP(ctx context.Context, c, lb, ub []float64, rows []rowData, deadline time.Time) (lpStatus, float64, []float64) {
	st, obj, x, _ := solveLPKeep(ctx, c, lb, ub, rows, deadline, new(tableaus))
	return st, obj, x
}

// solveLPKeep is solveLP returning the solver instance as well, so
// branch-and-bound can snapshot its optimal basis and warm-start child
// nodes from it. The instance is nil when the relaxation was refused for
// size; otherwise its tableau comes from free.
func solveLPKeep(ctx context.Context, c, lb, ub []float64, rows []rowData, deadline time.Time, free *tableaus) (lpStatus, float64, []float64, *simplex) {
	m := len(rows)
	nSlack := 0
	for _, r := range rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	if m*(len(c)+nSlack+m) > maxTableauCells {
		return lpIterLimit, 0, nil, nil
	}
	s := newSimplex(c, lb, ub, rows, free)
	s.deadline = deadline
	s.ctx = ctx
	st := s.solve()
	if st != lpOptimal {
		return st, 0, nil, s
	}
	return lpOptimal, s.objective(), s.values(), s
}
