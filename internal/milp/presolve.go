package milp

import "math"

// Node presolve for branch-and-bound. Two halves:
//
//   - tighten: iterated bound propagation over the block's rows, run on the
//     materialized bounds of every cold node solve. Singleton rows reduce to
//     pure bound updates, redundant rows are skipped, provably violated rows
//     prune the node without an LP, and integer bounds round to the nearest
//     admissible integer.
//   - reduced-cost fixing (sparseEngine.rcFix): after an optimal node solve
//     with an incumbent in hand, a nonbasic integer variable whose reduced
//     cost alone bridges the objective gap cannot leave its bound in any
//     improving solution of the subtree; both children pin it via
//     bbNode.fixes.
//
// Both halves only shrink the region the LP engines search without cutting
// any improving solution, so presolve-on and presolve-off return identical
// statuses and objectives (Options.noPresolve is the differential switch).

// boundFix pins one variable to a sub-interval of its branch bounds for a
// whole subtree. Fixes intersect with branch bounds; an empty intersection
// means the subtree holds no improving solution.
type boundFix struct {
	v      int
	lo, hi float64
}

// rcFixTol is the safety margin reduced costs must clear beyond the
// objective gap before a variable is fixed — dual values carry
// factorization noise.
const rcFixTol = 1e-6

// presolver propagates row activity bounds into variable bounds. It is
// built once per block and runs on scratch bound arrays in place.
type presolver struct {
	rows  []rowData
	isInt []bool
}

func newPresolver(m *Model) *presolver {
	isInt := make([]bool, len(m.vars))
	for i, v := range m.vars {
		isInt[i] = v.vt != Continuous
	}
	return &presolver{rows: m.rows, isInt: isInt}
}

// tighten runs bound propagation passes over lb/ub in place until a fixed
// point (capped) and reports false when the node is proven infeasible: a
// variable domain is empty or a row's activity range excludes its
// right-hand side. Tightened bounds are clamped to the opposing bound, so
// the arrays stay a valid (possibly degenerate) box on success.
func (p *presolver) tighten(lb, ub []float64) bool {
	for v := range lb {
		if lb[v] > ub[v]+feasTol {
			return false
		}
	}
	feasible := true
	for pass := 0; pass < 4; pass++ {
		changed := false
		for ri := range p.rows {
			r := &p.rows[ri]
			rlo, rhi := math.Inf(-1), math.Inf(1)
			switch r.sense {
			case LE:
				rhi = r.rhs
			case GE:
				rlo = r.rhs
			case EQ:
				rlo, rhi = r.rhs, r.rhs
			}
			// Activity range: finite parts plus a count of infinite
			// contributions (lower bounds are always finite; only +Inf
			// upper bounds produce them).
			minSum, maxSum := 0.0, 0.0
			ninfMin, ninfMax := 0, 0
			for _, t := range r.terms {
				if t.Coef > 0 {
					minSum += t.Coef * lb[t.Var]
					if math.IsInf(ub[t.Var], 1) {
						ninfMax++
					} else {
						maxSum += t.Coef * ub[t.Var]
					}
				} else {
					maxSum += t.Coef * lb[t.Var]
					if math.IsInf(ub[t.Var], 1) {
						ninfMin++
					} else {
						minSum += t.Coef * ub[t.Var]
					}
				}
			}
			rowTol := 1e-6 * (1 + math.Abs(r.rhs))
			if ninfMin == 0 && minSum > rhi+rowTol {
				return false // row provably violated: prune without an LP
			}
			if ninfMax == 0 && maxSum < rlo-rowTol {
				return false
			}
			redundantHi := math.IsInf(rhi, 1) || (ninfMax == 0 && maxSum <= rhi)
			redundantLo := math.IsInf(rlo, -1) || (ninfMin == 0 && minSum >= rlo)
			if redundantHi && redundantLo {
				continue // row can never bind: nothing to propagate
			}
			for _, t := range r.terms {
				v := int(t.Var)
				c := t.Coef
				// Activity of the other terms in each direction, valid only
				// when no *other* term contributes an infinity.
				var minContrib, maxContrib float64
				infMine := math.IsInf(ub[v], 1)
				if c > 0 {
					minContrib = c * lb[v]
					if !infMine {
						maxContrib = c * ub[v]
					}
				} else {
					maxContrib = c * lb[v]
					if !infMine {
						minContrib = c * ub[v]
					}
				}
				minOk := ninfMin == 0 || (ninfMin == 1 && infMine && c < 0)
				maxOk := ninfMax == 0 || (ninfMax == 1 && infMine && c > 0)
				if !redundantHi && minOk {
					lim := (rhi - (minSum - minContrib)) / c
					if c > 0 {
						changed = p.applyUb(lb, ub, v, lim, &feasible) || changed
					} else {
						changed = p.applyLb(lb, ub, v, lim, &feasible) || changed
					}
				}
				if !redundantLo && maxOk {
					lim := (rlo - (maxSum - maxContrib)) / c
					if c > 0 {
						changed = p.applyLb(lb, ub, v, lim, &feasible) || changed
					} else {
						changed = p.applyUb(lb, ub, v, lim, &feasible) || changed
					}
				}
				if !feasible {
					return false
				}
			}
		}
		if !changed {
			break
		}
	}
	return true
}

// applyUb installs a derived upper bound when it is a real improvement.
// Integer bounds round down with an integrality cushion; continuous bounds
// keep relative slack against float noise in the activity sums. The new
// bound clamps at the lower bound (clamping only weakens a valid bound),
// so a crossing beyond feasTol is a genuine empty domain.
func (p *presolver) applyUb(lb, ub []float64, v int, nu float64, feasible *bool) bool {
	if p.isInt[v] {
		nu = math.Floor(nu + 1e-6)
	} else {
		nu += 1e-9 * (1 + math.Abs(nu))
	}
	if nu >= ub[v]-1e-7 {
		return false
	}
	if nu < lb[v] {
		if nu < lb[v]-feasTol {
			*feasible = false
			return false
		}
		nu = lb[v]
	}
	ub[v] = nu
	return true
}

// applyLb is applyUb mirrored for lower bounds.
func (p *presolver) applyLb(lb, ub []float64, v int, nl float64, feasible *bool) bool {
	if p.isInt[v] {
		nl = math.Ceil(nl - 1e-6)
	} else {
		nl -= 1e-9 * (1 + math.Abs(nl))
	}
	if nl <= lb[v]+1e-7 {
		return false
	}
	if nl > ub[v] {
		if nl > ub[v]+feasTol {
			*feasible = false
			return false
		}
		nl = ub[v]
	}
	lb[v] = nl
	return true
}
