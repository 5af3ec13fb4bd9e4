package milp

import (
	"math"
	"math/rand"
	"testing"
)

// solveBoth runs the same model through the forced sparse and forced dense
// (reference) engines and asserts status agreement; on optimality it also
// asserts objective agreement and feasibility/integrality of both
// solutions (the solutions themselves may differ under alternative
// optima). The adaptive default is covered by its own differential tests
// in adaptive_test.go.
func solveBoth(t *testing.T, name string, m *Model) (*Solution, *Solution) {
	t.Helper()
	sparse, err := Solve(m, Options{engine: engineSparse})
	if err != nil {
		t.Fatalf("%s: sparse solve: %v", name, err)
	}
	dense, err := Solve(m, Options{engine: engineDense})
	if err != nil {
		t.Fatalf("%s: dense solve: %v", name, err)
	}
	if sparse.Status != dense.Status {
		t.Fatalf("%s: status sparse=%v dense=%v", name, sparse.Status, dense.Status)
	}
	if sparse.Status == StatusOptimal {
		if !almost(sparse.Objective, dense.Objective) {
			t.Fatalf("%s: objective sparse=%v dense=%v", name, sparse.Objective, dense.Objective)
		}
		if err := m.CheckFeasible(sparse.X, 1e-5); err != nil {
			t.Fatalf("%s: sparse solution infeasible: %v", name, err)
		}
		if err := m.CheckFeasible(dense.X, 1e-5); err != nil {
			t.Fatalf("%s: dense solution infeasible: %v", name, err)
		}
	}
	return sparse, dense
}

func TestSparseDenseEquivalenceFixtures(t *testing.T) {
	for name, m := range fixtureModels() {
		solveBoth(t, name, m)
	}
}

// Differential property test: on random binary programs of up to 12
// variables, the sparse engine matches both exhaustive enumeration and the
// dense reference engine — objective value, integral feasible solution,
// and feasible/infeasible verdict.
func TestSparseDenseRandomBinaryMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 90; trial++ {
		m, n := randomBinaryModel(rng, 12)
		want := bruteForceBinary(m, n)
		sparse, _ := solveBoth(t, "random-binary", m)
		if math.IsNaN(want) {
			if sparse.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v obj=%v", trial, sparse.Status, sparse.Objective)
			}
			continue
		}
		if sparse.Status != StatusOptimal {
			t.Fatalf("trial %d: status = %v, want optimal (brute force %v)", trial, sparse.Status, want)
		}
		if !almost(sparse.Objective, want) {
			t.Fatalf("trial %d: sparse obj = %v, brute force = %v", trial, sparse.Objective, want)
		}
	}
}

// Differential property test on mixed integer/continuous models with
// general bounds, including cold (non-warm-started) solves on both engines.
func TestSparseDenseRandomMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		m := NewModel("randmix", Minimize)
		vars := make([]Var, n)
		for i := 0; i < n; i++ {
			vt := []VarType{Binary, Integer, Continuous}[rng.Intn(3)]
			lb := float64(rng.Intn(4) - 2)
			ub := lb + float64(1+rng.Intn(6))
			if vt == Binary {
				lb, ub = 0, 1
			}
			vars[i] = m.AddVar(lb, ub, vt, "x")
			m.SetObjCoef(vars[i], float64(rng.Intn(13)-6))
		}
		for r := 0; r < 1+rng.Intn(4); r++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{vars[i], float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []ConstrSense{LE, GE, EQ}[rng.Intn(3)]
			m.AddConstr(terms, sense, float64(rng.Intn(11)-5), "r")
		}
		sparse, _ := solveBoth(t, "random-mixed", m)
		coldSparse, err := Solve(m, Options{cold: true, engine: engineSparse})
		if err != nil {
			t.Fatal(err)
		}
		coldDense, err := Solve(m, Options{cold: true, engine: engineDense})
		if err != nil {
			t.Fatal(err)
		}
		if coldSparse.Status != sparse.Status || coldDense.Status != sparse.Status {
			t.Fatalf("trial %d: status warm=%v coldSparse=%v coldDense=%v",
				trial, sparse.Status, coldSparse.Status, coldDense.Status)
		}
		if sparse.Status == StatusOptimal &&
			(!almost(coldSparse.Objective, sparse.Objective) || !almost(coldDense.Objective, sparse.Objective)) {
			t.Fatalf("trial %d: objectives warm=%v coldSparse=%v coldDense=%v",
				trial, sparse.Objective, coldSparse.Objective, coldDense.Objective)
		}
	}
}

// pigeonholeModel encodes fitting holes+1 items into the given number of
// holes (x[i][h] = item i in hole h, each item placed exactly once, no two
// items share a hole). The LP relaxation is feasible everywhere (x ≡
// 1/holes) but every integer leaf is infeasible, so branch-and-bound
// explores a tree made almost entirely of LP-infeasible nodes — the
// workload the Farkas-certificate check is for.
func pigeonholeModel(holes int) *Model {
	items := holes + 1
	m := NewModel("pigeonhole", Maximize)
	x := make([][]Var, items)
	for i := range x {
		x[i] = make([]Var, holes)
		row := make([]Term, holes)
		for h := range x[i] {
			x[i][h] = m.AddVar(0, 1, Binary, "x")
			row[h] = Term{x[i][h], 1}
		}
		m.AddConstr(row, EQ, 1, "placed")
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < items; i++ {
			for k := i + 1; k < items; k++ {
				m.AddConstr([]Term{{x[i][h], 1}, {x[k][h], 1}}, LE, 1, "exclusive")
			}
		}
	}
	return m
}

// TestFarkasCertificateOnInfeasibilityHeavyTree is the regression test for
// the Farkas-certificate satellite: on a tree dominated by infeasible
// nodes, the sparse warm path must certify dual-infeasible verdicts
// directly (CertInfeas > 0) instead of re-proving them cold, while
// returning exactly the dense/cold answer.
func TestFarkasCertificateOnInfeasibilityHeavyTree(t *testing.T) {
	m := pigeonholeModel(4)
	sparse, dense := solveBoth(t, "pigeonhole", m)
	if sparse.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible (pigeonhole)", sparse.Status)
	}
	if sparse.Nodes < 8 {
		t.Fatalf("tree too small to be meaningful: %d nodes", sparse.Nodes)
	}
	if sparse.CertInfeas == 0 {
		t.Fatalf("no Farkas-certified infeasible nodes on an infeasibility-heavy tree (nodes=%d iters=%d)",
			sparse.Nodes, sparse.Iters)
	}
	if dense.CertInfeas != 0 {
		t.Fatalf("dense engine reported %d certified nodes; the certificate check is sparse-only", dense.CertInfeas)
	}
	// The certificate replaces cold re-proofs, so the warm sparse solver
	// must spend fewer iterations than its own cold mode on this tree.
	cold, err := Solve(m, Options{cold: true, engine: engineSparse})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != StatusInfeasible {
		t.Fatalf("cold status %v", cold.Status)
	}
	if sparse.Iters >= cold.Iters {
		t.Fatalf("warm path with certificates spent %d iters, cold %d", sparse.Iters, cold.Iters)
	}
	t.Logf("certified %d of %d nodes; iters warm=%d cold=%d refactors=%d",
		sparse.CertInfeas, sparse.Nodes, sparse.Iters, cold.Iters, sparse.Refactors)
}

// pathCoverModel is a minimum-weight vertex cover LP on an n-vertex path
// (n continuous [0,1] variables, n-1 GE rows), padded with extra trivial
// variables and rows (x ≤ 1) until the model holds `vars` variables and
// one row per variable. The path is bipartite, so the LP relaxation is
// integral and the optimum equals the DP value; the padding inflates the
// dense tableau — m·(vars+slacks+m) cells — without adding simplex work,
// which keeps the fixture fast under -race while staying far over the
// dense cap.
func pathCoverModel(n, vars int) (*Model, float64) {
	m := NewModel("pathcover", Minimize)
	w := make([]float64, n)
	vs := make([]Var, n)
	for i := range vs {
		w[i] = float64(1 + (i*7)%5)
		vs[i] = m.AddVar(0, 1, Continuous, "x")
		m.SetObjCoef(vs[i], w[i])
	}
	for i := 0; i+1 < n; i++ {
		m.AddConstr([]Term{{vs[i], 1}, {vs[i+1], 1}}, GE, 1, "edge")
	}
	for i := n; i < vars; i++ {
		v := m.AddVar(0, 1, Continuous, "pad")
		m.AddConstr([]Term{{v, 1}}, LE, 1, "padrow")
	}
	// DP ground truth: fOut/fIn = min cost over the first i+1 vertices
	// with vertex i excluded/included, all edges among them covered.
	fOut, fIn := 0.0, w[0]
	for i := 1; i < n; i++ {
		fOut, fIn = fIn, w[i]+math.Min(fOut, fIn)
	}
	return m, math.Min(fOut, fIn)
}

// TestLargeBlockBeyondDenseCap is the acceptance fixture: a block whose
// dense tableau would exceed maxTableauCells (which the dense engine
// refuses, reporting no solution) solves exactly on the sparse engine.
func TestLargeBlockBeyondDenseCap(t *testing.T) {
	const (
		n    = 500
		vars = 4000
	)
	m, want := pathCoverModel(n, vars)
	// m rows = vars-1 (path edges + padding), slacks = rows: the dense
	// tableau would hold ≈ (vars-1)·3·vars ≈ 48M cells.
	rows := m.NumRows()
	if cells := rows * (vars + 2*rows); cells <= maxTableauCells {
		t.Fatalf("fixture no longer exceeds the dense cap: %d <= %d", cells, maxTableauCells)
	}
	opt := Options{disableBlocks: true, engine: engineSparse} // padding must not split into its own blocks
	dense := opt
	dense.engine = engineDense
	dsol, err := Solve(m, dense)
	if err != nil {
		t.Fatal(err)
	}
	if dsol.Status != StatusNoSolution {
		t.Fatalf("dense engine on an over-cap block: status %v, want no-solution (refused for size)", dsol.Status)
	}
	sparse, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Status != StatusOptimal {
		t.Fatalf("sparse status %v", sparse.Status)
	}
	if !almost(sparse.Objective, want) {
		t.Fatalf("sparse objective %v, DP ground truth %v", sparse.Objective, want)
	}
	if err := m.CheckFeasible(sparse.X, 1e-5); err != nil {
		t.Fatalf("sparse solution infeasible: %v", err)
	}
	if sparse.Refactors == 0 || sparse.LUFill == 0 {
		t.Fatalf("expected factorization activity, got refactors=%d fill=%d", sparse.Refactors, sparse.LUFill)
	}
	t.Logf("rows=%d vars=%d: obj=%v iters=%d refactors=%d fill=%d",
		rows, vars, sparse.Objective, sparse.Iters, sparse.Refactors, sparse.LUFill)
}
