package milp

import (
	"context"
	"fmt"
	"math"
	"time"
)

// Solve optimizes the model. Block decomposition splits the model into
// independent sub-problems first; each block is solved by LP-based
// branch-and-bound. The returned solution carries StatusLimit when a budget
// expired but a feasible incumbent exists. Options.TimeLimit is a
// convenience over SolveContext: callers that share one budget across many
// models (e.g. parallel partition solving) should pass a context with a
// deadline instead.
//
//lint:ctxroot convenience entry point for context-free callers; anything holding a deadline must call SolveContext
func Solve(m *Model, opt Options) (*Solution, error) {
	return SolveContext(context.Background(), m, opt)
}

// SolveContext is Solve under a context: the solve stops cooperatively when
// ctx is canceled or its deadline passes, returning the incumbent
// (StatusLimit) or StatusNoSolution exactly as a TimeLimit expiry would.
// When both a context deadline and Options.TimeLimit are set, the earlier
// bound wins.
func SolveContext(ctx context.Context, m *Model, opt Options) (*Solution, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	var deadline time.Time
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	// Constant (empty) rows arise when coefficient merging cancels every
	// term; they are feasibility facts, not constraints on variables.
	for _, r := range m.rows {
		if len(r.terms) > 0 {
			continue
		}
		ok := true
		switch r.sense {
		case LE:
			ok = 0 <= r.rhs+feasTol
		case GE:
			ok = 0 >= r.rhs-feasTol
		case EQ:
			ok = math.Abs(r.rhs) <= feasTol
		}
		if !ok {
			return &Solution{Status: StatusInfeasible, X: make([]float64, len(m.vars))}, nil
		}
	}

	blocks := m.blocks(opt.disableBlocks)
	sol := &Solution{X: make([]float64, len(m.vars)), Blocks: len(blocks), Status: StatusOptimal,
		DenseBlock: make([]bool, len(blocks))}
	sol.Objective = m.objConst

	sc := &scratch{local: make([]int, len(m.vars))}
	for bi, blk := range blocks {
		sub := m.subModel(blk, sc.local, &sc.sub)
		var warm []float64
		if opt.WarmStart != nil {
			warm = grow(&sc.warm, len(blk.vars))
			for i, gv := range blk.vars {
				warm[i] = opt.WarmStart[gv]
			}
			if sub.CheckFeasible(warm, 1e-6) != nil {
				warm = nil
			}
		}
		res := branchAndBound(ctx, sub, opt, warm, deadline, sc)
		sol.Nodes += res.nodes
		sol.Iters += res.iters
		sol.Refactors += res.refactors
		sol.LUFill += res.luFill
		sol.CertInfeas += res.certInfeas
		sol.DenseBlock[bi] = res.dense
		if res.dense {
			sol.DenseBlocks++
		} else {
			sol.SparseBlocks++
		}
		switch res.status {
		case StatusInfeasible, StatusUnbounded, StatusNoSolution:
			return &Solution{Status: res.status, Blocks: len(blocks), Nodes: sol.Nodes, Iters: sol.Iters,
				Refactors: sol.Refactors, LUFill: sol.LUFill, CertInfeas: sol.CertInfeas,
				SparseBlocks: sol.SparseBlocks, DenseBlocks: sol.DenseBlocks}, nil
		case StatusLimit:
			sol.Status = StatusLimit
		}
		for i, gv := range blk.vars {
			sol.X[gv] = res.x[i]
		}
		sol.Objective += res.objective
	}
	return sol, nil
}

// scratch is the memory one SolveContext call reuses from block to block:
// the sub-model, branch-and-bound's per-variable arrays and the free list
// of dropped dense simplexes.
type scratch struct {
	sub                             Model
	local, intVars                  []int
	warm, c, rootLB, rootUB, lb, ub []float64
	seen                            []bool
	tableaus                        tableaus
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

// block is one connected component of the variable/constraint graph: its
// variables in increasing order and its non-empty rows in model order, both
// as indexes into the model.
type block struct {
	vars []int
	rows []int
}

// blocks partitions the model into connected components of the
// variable/constraint graph in one union-find pass over the rows, then
// buckets each variable and each non-empty row (by its first variable)
// into its block: O(vars + nnz). Every block's vars and rows are subslices
// of two flat arrays, sized by a counting pass. A variable no row
// references is a block of its own (counted in Solution.Blocks and the
// engine counts like any other), so its bound selection is still
// performed. Blocks are ordered by smallest variable, which fixes the
// order SolveContext sums their objectives in. With disable, one block
// holds every variable and every non-empty row.
func (m *Model) blocks(disable bool) []block {
	n := len(m.vars)
	if n == 0 {
		return nil
	}
	// With disable every parent stays 0: one component.
	parent := make([]int, n)
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	if !disable {
		for i := range parent {
			parent[i] = i
		}
		for _, r := range m.rows {
			for i := 1; i < len(r.terms); i++ {
				ra, rb := find(int(r.terms[0].Var)), find(int(r.terms[i].Var))
				if ra != rb {
					parent[ra] = rb
				}
			}
		}
	}
	// of[v] is v's block, numbered by smallest variable (id[root] is the
	// root's block plus one); rowOf[ri] is row ri's, -1 for an empty row.
	id, of := make([]int, n), make([]int, n)
	nb := 0
	for v := 0; v < n; v++ {
		root := find(v)
		if id[root] == 0 {
			nb++
			id[root] = nb
		}
		of[v] = id[root] - 1
	}
	rowOf := make([]int, len(m.rows))
	for ri, r := range m.rows {
		rowOf[ri] = -1
		if len(r.terms) > 0 {
			rowOf[ri] = of[r.terms[0].Var]
		}
	}
	vars, vEnd := bucket(of, nb)
	rows, rEnd := bucket(rowOf, nb)
	out := make([]block, nb)
	for b, v0, r0 := 0, 0, 0; b < nb; b++ {
		out[b] = block{vars: vars[v0:vEnd[b]:vEnd[b]], rows: rows[r0:rEnd[b]:rEnd[b]]}
		v0, r0 = vEnd[b], rEnd[b]
	}
	return out
}

// bucket lists the items i with of[i] >= 0 grouped by of[i] < nb, in
// increasing order within a group, and returns each group's end offset.
func bucket(of []int, nb int) (flat, end []int) {
	end = make([]int, nb)
	for _, b := range of {
		if b >= 0 {
			end[b]++
		}
	}
	total := 0
	for b, k := range end {
		end[b], total = total, total+k // now the group's start
	}
	flat = make([]int, total)
	for i, b := range of {
		if b >= 0 {
			flat[end[b]] = i
			end[b]++
		}
	}
	return flat, end
}

// subModel rebuilds sub in place as the sub-problem of block b; its
// variable i is b.vars[i]. local is scratch of length NumVars, shared
// across calls: it receives each block variable's local index, which only
// this block's rows read.
func (m *Model) subModel(b block, local []int, sub *Model) *Model {
	sub.Reset()
	sub.Name, sub.sense = m.Name, m.sense
	for i, gv := range b.vars {
		local[gv] = i
		sub.vars = append(sub.vars, m.vars[gv])
	}
	for _, ri := range b.rows {
		r := &m.rows[ri]
		start := len(sub.arena)
		for _, t := range r.terms {
			sub.arena = append(sub.arena, Term{Var: Var(local[t.Var]), Coef: t.Coef})
		}
		end := len(sub.arena)
		sub.rows = append(sub.rows, rowData{name: r.name, terms: sub.arena[start:end:end], sense: r.sense, rhs: r.rhs})
	}
	return sub
}

type bbResult struct {
	status     Status
	objective  float64
	x          []float64
	nodes      int
	iters      int  // simplex iterations across all node solves
	refactors  int  // basis LU factorizations (sparse engine)
	luFill     int  // total L+U nonzeros across factorizations
	certInfeas int  // Farkas-certified dual-infeasible verdicts
	dense      bool // which LP engine solved the block
}

// Adaptive engine thresholds (chooseDense), tuned on three models the
// engine-agreement tests also solve: a 26-variable conflict knapsack
// (~700 tableau cells) and pigeonhole-4 (~4700 cells at 0.11 density) route
// dense, where the tableau beat the revised simplex by ~1.2-1.3×
// pivots/sec; an 800-vertex path-cover LP (1.9M cells, banded) routes
// sparse, where the tableau lost 7×.
const (
	adaptiveMaxCells   = 32768 // above this, per-pivot O(cells) always loses to per-nonzero
	adaptiveTinyCells  = 4096  // below this, the tableau always wins (no LU/eta overhead)
	adaptiveMinDensity = 0.05  // between the caps, nonzero density decides
)

// chooseDense picks the LP engine for one block by default. The
// dense tableau pays m·n cells per pivot but carries no factorization or
// eta-replay overhead; the sparse revised simplex pays per nonzero plus
// LU/eta bookkeeping that only amortizes over enough pivots. Tiny
// tableaus are always dense and big ones always sparse; in between,
// nonzero density decides, except that a block with no integer variables
// solves exactly one relaxation — too few pivots to amortize the tableau
// build — and stays sparse.
func chooseDense(m *Model, nInt int) bool {
	nv := len(m.vars)
	mr := len(m.rows)
	nnz, nSlack := 0, 0
	for _, r := range m.rows {
		nnz += len(r.terms)
		if r.sense != EQ {
			nSlack++
		}
	}
	cells := mr * (nv + nSlack + mr)
	if cells <= adaptiveTinyCells {
		return true
	}
	if cells > adaptiveMaxCells || nInt == 0 {
		return false
	}
	return float64(nnz)/float64(mr*nv) >= adaptiveMinDensity
}

// bbNode is one branch-and-bound node, stored as a bound-delta chain
// against the root: each node records only the branched variable and its
// bounds at this node, with parent pointers supplying the rest of the
// path. Full bound arrays are materialized only for cold solves.
type bbNode struct {
	parent *bbNode // delta chain back to the root (nil at the root)
	v      int     // branched variable, -1 at the root
	lo, hi float64 // v's bounds at this node (one side differs from the parent)
	depth  int
	// Warm-start provenance: parentSeq names the solved LP state of the
	// parent. A popped node warm-starts in place when the engine still
	// holds that state (the first child of a dive), or from snap when the
	// dive has since moved on (the second child).
	parentSeq uint64
	snap      nodeSnap
	// fixes are reduced-cost fixes derived at the parent after its solve:
	// bounds valid for every improving solution in this subtree. They
	// intersect with (never replace) branch bounds, and ancestors'
	// fixes are reached through the parent chain.
	fixes []boundFix
}

// branchAndBound solves one block. Internally everything is a
// minimization; maximization models are negated on entry and restored on
// exit. Cancellation of ctx is treated exactly like an expired deadline.
//
// Node relaxations are solved by an lpEngine (engine.go), chosen per block
// by chooseDense unless Options.engine forces one. Whenever the parent's
// basis is available the engine warm-starts: the root (and any
// engine-forced refactorization) pays for a full two-phase primal solve,
// every other node applies its one bound delta to an existing optimal
// basis and repairs it with dual pivots. Options.cold restores the
// historical solve-from-scratch behavior.
func branchAndBound(ctx context.Context, m *Model, opt Options, warm []float64, deadline time.Time, sc *scratch) bbResult {
	n := len(m.vars)
	c := grow(&sc.c, n)
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	rootLB := grow(&sc.rootLB, n)
	rootUB := grow(&sc.rootUB, n)
	intVars := sc.intVars[:0]
	for i, v := range m.vars {
		c[i] = sign * v.obj
		rootLB[i] = v.lb
		rootUB[i] = v.ub
		if v.vt != Continuous {
			intVars = append(intVars, i)
		}
	}
	sc.intVars = intVars

	best := math.Inf(1)
	var bestX []float64
	if warm != nil {
		// Scratch too: nothing writes an incumbent, SolveContext copies it out.
		best = sign * m.objectiveOf(warm) // objectiveOf includes objConst=0 for subModels
		bestX = warm
	}

	expired := func() bool {
		if ctx.Err() != nil {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	// The LP engine holds all warm-start state: the most recently solved
	// node's optimal basis (identified by seq; 0 = none), the snapshot
	// memory budget, and the refactorization policy.
	useWarm := !opt.cold
	dense := opt.engine == engineDense ||
		(opt.engine == engineAdaptive && chooseDense(m, len(intVars)))
	var eng lpEngine
	if dense {
		de := &denseEngine{ctx: ctx, deadline: deadline, c: c, rows: m.rows, useWarm: useWarm, tableaus: &sc.tableaus}
		defer func() { sc.tableaus.put(de.hot) }()
		eng = de
	} else {
		eng = &sparseEngine{ctx: ctx, deadline: deadline, c: c, rows: m.rows, useWarm: useWarm}
	}
	var pre *presolver
	if !opt.noPresolve {
		pre = newPresolver(m)
	}

	// bounds materializes a node's full bound arrays (root bounds plus the
	// delta chain, nearest node winning) into shared scratch space.
	scratchLB := grow(&sc.lb, n)
	scratchUB := grow(&sc.ub, n)
	seen := grow(&sc.seen, n) // all false: bounds unsets what it sets
	bounds := func(node *bbNode) ([]float64, []float64) {
		copy(scratchLB, rootLB)
		copy(scratchUB, rootUB)
		for nd := node; nd != nil; nd = nd.parent {
			if nd.v >= 0 && !seen[nd.v] {
				seen[nd.v] = true
				scratchLB[nd.v] = nd.lo
				scratchUB[nd.v] = nd.hi
			}
		}
		for nd := node; nd != nil; nd = nd.parent {
			if nd.v >= 0 {
				seen[nd.v] = false
			}
		}
		// Reduced-cost fixes intersect with the branch bounds: a fix is
		// valid for the entire subtree below the node that derived it,
		// whatever later branching did to the same variable. An empty
		// intersection is legitimate (the subtree holds no improving
		// solution) and is caught by the presolve domain check.
		for nd := node; nd != nil; nd = nd.parent {
			for _, f := range nd.fixes {
				if f.lo > scratchLB[f.v] {
					scratchLB[f.v] = f.lo
				}
				if f.hi < scratchUB[f.v] {
					scratchUB[f.v] = f.hi
				}
			}
		}
		return scratchLB, scratchUB
	}
	// boundsOf reads one variable's bounds at a node without materializing.
	boundsOf := func(node *bbNode, v int) (float64, float64) {
		for nd := node; nd != nil; nd = nd.parent {
			if nd.v == v {
				return nd.lo, nd.hi
			}
		}
		return rootLB[v], rootUB[v]
	}

	stack := []*bbNode{{v: -1}}
	nodes := 0
	hitLimit := false
	finish := func(status Status, objective float64, x []float64) bbResult {
		rf, lf, ci := eng.counters()
		return bbResult{status: status, objective: objective, x: x, dense: dense,
			nodes: nodes, iters: eng.iters(), refactors: rf, luFill: lf, certInfeas: ci}
	}
	for len(stack) > 0 {
		if nodes >= maxNodes || expired() {
			hitLimit = true
			break
		}
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		var st lpStatus
		var obj float64
		var x []float64
		solved := false
		if useWarm && node.v >= 0 {
			st, obj, x, solved = eng.warm(node)
		}
		if !solved {
			if node.snap != nil {
				eng.drop(node.snap) // refactorization turn: drop the snapshot
				node.snap = nil
			}
			lbN, ubN := bounds(node)
			if pre != nil && !pre.tighten(lbN, ubN) {
				continue // presolve proved the node infeasible
			}
			st, obj, x = eng.cold(lbN, ubN)
		}
		switch st {
		case lpInfeasible:
			continue
		case lpIterLimit:
			hitLimit = true
			continue
		case lpUnbounded:
			if nodes == 1 {
				return finish(StatusUnbounded, 0, nil)
			}
			continue
		}
		if obj >= best-1e-9 {
			continue // bound cannot improve incumbent
		}
		// Find the highest-priority, most fractional integer variable.
		branchVar := -1
		worst := intTol
		bestPri := math.MinInt32
		for _, iv := range intVars {
			f := x[iv] - math.Floor(x[iv])
			frac := math.Min(f, 1-f)
			if frac <= intTol {
				continue
			}
			pri := m.vars[iv].pri
			if pri > bestPri || (pri == bestPri && frac > worst) {
				bestPri = pri
				worst = frac
				branchVar = iv
			}
		}
		if branchVar < 0 {
			// Integral solution (snap near-integers exactly).
			for _, iv := range intVars {
				x[iv] = math.Round(x[iv])
			}
			if obj < best {
				best = obj
				bestX = x
			}
			continue
		}
		// Rounding heuristic: snap all integer variables and test.
		if bestX == nil {
			lb, ub := bounds(node)
			rounded := append([]float64(nil), x...)
			for _, iv := range intVars {
				rounded[iv] = math.Round(rounded[iv])
				rounded[iv] = math.Max(lb[iv], math.Min(ub[iv], rounded[iv]))
			}
			if m.CheckFeasible(rounded, 1e-6) == nil {
				robj := 0.0
				for i := range rounded {
					robj += c[i] * rounded[i]
				}
				if robj < best {
					best = robj
					bestX = rounded
				}
			}
		}
		// Branch: explore the side nearest the LP value first (pushed
		// last). That child inherits the hot basis in place; the far child
		// carries a snapshot of it, budget permitting, and otherwise
		// re-solves cold when popped.
		fl := math.Floor(x[branchVar])
		curLo, curHi := boundsOf(node, branchVar)
		// Reduced-cost fixing: with an incumbent in hand, any nonbasic
		// integer variable whose reduced cost alone bridges the gap to the
		// cutoff is pinned at its bound for both children.
		var fixes []boundFix
		if pre != nil && bestX != nil {
			fixes = eng.rcFix(intVars, best-1e-9-obj)
		}
		down := &bbNode{parent: node, v: branchVar, lo: curLo, hi: fl, depth: node.depth + 1, parentSeq: eng.seq(), fixes: fixes}
		up := &bbNode{parent: node, v: branchVar, lo: fl + 1, hi: curHi, depth: node.depth + 1, parentSeq: eng.seq(), fixes: fixes}
		near, far := up, down
		if x[branchVar]-fl > 0.5 {
			near, far = down, up
		}
		if useWarm {
			far.snap = eng.snap()
		}
		stack = append(stack, far, near)
	}

	if bestX == nil {
		if hitLimit {
			return finish(StatusNoSolution, 0, nil)
		}
		return finish(StatusInfeasible, 0, nil)
	}
	status := StatusOptimal
	if hitLimit {
		status = StatusLimit
	}
	// Restore sign and pad objective.
	obj := 0.0
	for i := range bestX {
		obj += m.vars[i].obj * bestX[i]
	}
	return finish(status, obj, bestX)
}

// String summarizes model dimensions.
func (m *Model) String() string {
	nb, ni := 0, 0
	for _, v := range m.vars {
		switch v.vt {
		case Binary:
			nb++
		case Integer:
			ni++
		}
	}
	return fmt.Sprintf("milp(%s: %d vars [%d bin, %d int], %d rows)", m.Name, len(m.vars), nb, ni, len(m.rows))
}
