package milp

import (
	"fmt"
	"testing"
)

// TestSolveAllocsPerBlock gates the per-call scratch: assembling the
// sub-model, branch-and-bound's arrays and the dense tableaus of a block
// reuse memory the call already holds, so a many-block solve allocates a
// small constant per block (about 20 here; about 101 when every block
// built its own).
func TestSolveAllocsPerBlock(t *testing.T) {
	const nBlocks, maxPerBlock = 200, 30
	m := manyBlocksModel(nBlocks, 1)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Solve(m, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / nBlocks
	if per > maxPerBlock {
		t.Fatalf("%.1f allocations per block, want at most %d", per, maxPerBlock)
	}
	t.Logf("%.1f allocations per block", per)
}

// appendModel copies src's variables and rows after dst's own, so src
// becomes one more block of dst (both must share a sense).
func appendModel(dst, src *Model) {
	off := Var(len(dst.vars))
	dst.vars = append(dst.vars, src.vars...)
	for _, r := range src.rows {
		terms := make([]Term, len(r.terms))
		for i, t := range r.terms {
			terms[i] = Term{Var: t.Var + off, Coef: t.Coef}
		}
		dst.AddConstr(terms, r.sense, r.rhs, r.name)
	}
	dst.objConst += src.objConst
}

// scratchReuseParts returns single-block maximization models of varied
// shape and size, in an order where blocks grow and shrink.
func scratchReuseParts() []*Model {
	tiny := NewModel("tiny", Maximize) // one column, no rows
	tiny.SetObjCoef(tiny.AddVar(0, 1, Binary, ""), 1)

	ge := NewModel("ge", Maximize) // a GE row whose slack cannot start basic
	x, y := ge.AddVar(0, 1, Binary, ""), ge.AddVar(0, 1, Binary, "")
	ge.SetObjCoef(x, -1)
	ge.SetObjCoef(y, -2)
	ge.AddConstr([]Term{{x, 1}, {y, 1}}, GE, 1, "")

	eq := NewModel("eq", Maximize) // EQ rows need artificials
	v := make([]Var, 4)
	for i := range v {
		v[i] = eq.AddVar(0, 1, Binary, "")
		eq.SetObjCoef(v[i], float64(i+1))
	}
	i3 := eq.AddVar(0, 10, Continuous, "")
	eq.SetObjCoef(i3, 0.5)
	eq.AddConstr([]Term{{v[0], 1}, {v[1], 1}, {v[2], 1}, {v[3], 1}}, EQ, 2, "")
	eq.AddConstr([]Term{{i3, 1}, {v[0], -3}, {v[3], -2.5}}, EQ, 0.5, "")
	eq.AddConstr([]Term{{v[1], 1}, {v[3], 1}}, LE, 1, "")

	// A continuous path cover has more tableau cells than the tiny cap and
	// no integer variables: the adaptive choice routes it sparse.
	path := NewModel("path", Maximize)
	pv := make([]Var, 40)
	for i := range pv {
		pv[i] = path.AddVar(0, 1, Continuous, "")
		path.SetObjCoef(pv[i], -float64(1+(i*7)%5))
	}
	for i := 0; i+1 < len(pv); i++ {
		path.AddConstr([]Term{{pv[i], 1}, {pv[i+1], 1}}, GE, 1, "")
	}

	one := manyBlocksModel(1, 3)
	return []*Model{tiny, ge, benchModel(26, 101), eq, benchModel(14, 102), one, path, benchModel(20, 103), tiny, ge}
}

// TestSolveScratchReuse solves a model whose blocks vary in shape and size
// (tiny, GE/EQ rows with artificials, branching knapsacks whose far
// children carry snapshots, a sparse-engine block, growing and shrinking
// tableaus) and checks that each block ends exactly as when solved alone
// as its own model: same X, objective, nodes, iterations and LP engine
// (Solution.DenseBlock, by block order). A block that sees memory a
// previous block left behind in the reused scratch or in a recycled
// tableau diverges. Each block's numbers are read as the difference
// between solving the first k and the first k-1 blocks.
func TestSolveScratchReuse(t *testing.T) {
	parts := scratchReuseParts()
	for _, order := range []string{"forward", "reverse"} {
		if order == "reverse" {
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
		all := NewModel("all", Maximize)
		var prev *Solution
		obj, sparse, branched := 0.0, 0, 0
		for k, part := range parts {
			where := fmt.Sprintf("%s block %d (%s)", order, k, part.Name)
			alone, err := Solve(part, Options{})
			if err != nil || alone.Status != StatusOptimal || alone.Blocks != 1 {
				t.Fatalf("%s alone: %v, %+v", where, err, alone)
			}
			sparse += alone.SparseBlocks
			if alone.Nodes > 1 {
				branched++
			}
			off := len(all.vars)
			appendModel(all, part)
			sol, err := Solve(all, Options{})
			if err != nil || sol.Status != StatusOptimal || sol.Blocks != k+1 {
				t.Fatalf("%s: %v, %+v", where, err, sol)
			}
			for i, want := range alone.X {
				if got := sol.X[off+i]; got != want {
					t.Fatalf("%s: x%d = %v, alone %v", where, i, got, want)
				}
			}
			obj += alone.Objective
			if sol.Objective != obj {
				t.Fatalf("%s: objective %v, want %v", where, sol.Objective, obj)
			}
			nodes, iters := sol.Nodes, sol.Iters
			if prev != nil {
				nodes -= prev.Nodes
				iters -= prev.Iters
			}
			if nodes != alone.Nodes || iters != alone.Iters {
				t.Fatalf("%s: %d nodes %d iters, alone %d nodes %d iters", where, nodes, iters, alone.Nodes, alone.Iters)
			}
			// The part appended last has the largest variables: block k.
			if len(sol.DenseBlock) != k+1 || sol.DenseBlock[k] != (alone.DenseBlocks == 1) {
				t.Fatalf("%s: DenseBlock %v, alone %+v", where, sol.DenseBlock, alone)
			}
			prev = sol
		}
		if sparse == 0 || branched < 3 {
			t.Fatalf("%s: %d sparse blocks, %d branching blocks; the model misses a case", order, sparse, branched)
		}
	}
}
