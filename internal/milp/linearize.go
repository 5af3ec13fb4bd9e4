package milp

// Linearization helpers for the bilinear terms that appear in the paper's
// MILP encoding (Section 3.2). On binary inputs the McCormick envelope is
// exact, so these reformulations preserve optimality.

// ProductBinaryCont adds p = z·v for binary z and continuous v ∈ [lo, hi]
// (the paper's Equation 11):
//
//	p ≤ hi·z,  p ≥ lo·z,  p ≤ v − lo·(1−z),  p ≥ v − hi·(1−z).
func (m *Model) ProductBinaryCont(z, v Var, lo, hi float64, name string) Var {
	pLo, pHi := lo, hi
	if pLo > 0 {
		pLo = 0
	}
	if pHi < 0 {
		pHi = 0
	}
	p := m.AddVar(pLo, pHi, Continuous, name)
	m.AddConstr([]Term{{p, 1}, {z, -hi}}, LE, 0, suffixed(name, "_ub_z"))
	m.AddConstr([]Term{{p, 1}, {z, -lo}}, GE, 0, suffixed(name, "_lb_z"))
	m.AddConstr([]Term{{p, 1}, {v, -1}, {z, -lo}}, LE, -lo, suffixed(name, "_ub_v"))
	m.AddConstr([]Term{{p, 1}, {v, -1}, {z, -hi}}, GE, -hi, suffixed(name, "_lb_v"))
	return p
}

// IndicatorEq enforces y = 1 ⟹ v = target for binary y and continuous
// v ∈ [lo, hi] via big-M rows (the paper's Equation 7):
//
//	v − target ≤ (hi − target)·(1−y),
//	v − target ≥ (lo − target)·(1−y).
func (m *Model) IndicatorEq(y, v Var, target, lo, hi float64, name string) {
	// v + (hi-target)·y ≤ hi
	m.AddConstr([]Term{{v, 1}, {y, hi - target}}, LE, hi, suffixed(name, "_ub"))
	// v + (lo-target)·y ≥ lo
	m.AddConstr([]Term{{v, 1}, {y, lo - target}}, GE, lo, suffixed(name, "_lb"))
}

// suffixed names a helper row after its caller; unnamed callers get "".
func suffixed(name, suffix string) string {
	if name == "" {
		return ""
	}
	return name + suffix
}
