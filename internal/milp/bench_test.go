package milp

import (
	"math/rand"
	"testing"
	"time"
)

// benchModel builds a knapsack-with-side-constraints MILP whose
// branch-and-bound tree is deep enough for warm-starting to matter; the
// shape (binaries coupled by a capacity row plus pairwise conflicts)
// mirrors the paper's explanation encodings.
func benchModel(nVars int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel("bench", Maximize)
	vars := make([]Var, nVars)
	terms := make([]Term, nVars)
	for i := range vars {
		vars[i] = m.AddVar(0, 1, Binary, "x")
		m.SetObjCoef(vars[i], float64(5+rng.Intn(17)))
		terms[i] = Term{vars[i], float64(2 + rng.Intn(9))}
	}
	m.AddConstr(terms, LE, float64(3*nVars/2), "cap")
	for k := 0; k < nVars/2; k++ {
		a, b := rng.Intn(nVars), rng.Intn(nVars)
		if a == b {
			continue
		}
		m.AddConstr([]Term{{vars[a], 1}, {vars[b], 1}}, LE, 1, "conflict")
	}
	return m
}

// benchmarkBB solves the same models warm or cold and reports nodes and
// simplex iterations per node; the warm-started dual simplex should show a
// large drop in itersPerNode at equal objectives.
func benchmarkBB(b *testing.B, opt Options) {
	models := make([]*Model, 4)
	for i := range models {
		models[i] = benchModel(26, int64(100+i))
	}
	nodes, iters := 0, 0
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			sol, err := Solve(m, opt)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Status != StatusOptimal {
				b.Fatalf("status %v", sol.Status)
			}
			nodes += sol.Nodes
			iters += sol.Iters
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes")
	if nodes > 0 {
		b.ReportMetric(float64(iters)/float64(nodes), "itersPerNode")
	}
}

func BenchmarkBranchAndBoundWarm(b *testing.B) { benchmarkBB(b, Options{}) }

func BenchmarkBranchAndBoundCold(b *testing.B) { benchmarkBB(b, Options{cold: true}) }

// BenchmarkSparseVsDense compares per-pivot cost of the two LP engines on
// a single large block sized just under the dense cell cap (the dense
// engine refuses anything bigger), reporting pivots/sec. The sparse
// revised simplex pays per nonzero instead of per tableau cell, so its
// advantage grows with block size; the block here is a path vertex-cover
// LP — the same near-banded structure the linearized explanation
// encodings produce.
func benchmarkEngine(b *testing.B, n int, opt Options) {
	m := NewModel("pathcover", Minimize)
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.AddVar(0, 1, Continuous, "x")
		m.SetObjCoef(vars[i], float64(1+(i*7)%5))
	}
	for i := 0; i+1 < n; i++ {
		m.AddConstr([]Term{{vars[i], 1}, {vars[i+1], 1}}, GE, 1, "edge")
	}
	b.ResetTimer()
	pivots := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(m, opt)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			b.Fatalf("status %v", sol.Status)
		}
		pivots += sol.Iters
	}
	sec := time.Since(start).Seconds()
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots")
	if sec > 0 {
		b.ReportMetric(float64(pivots)/sec, "pivots/sec")
	}
}

// ~800-variable block: the dense tableau holds 799·2398 ≈ 1.9M cells —
// every pivot touches all of them, while the sparse engine touches a few
// dozen nonzeros.
func BenchmarkSparseVsDenseSparse(b *testing.B) {
	benchmarkEngine(b, 800, Options{engine: engineSparse})
}

func BenchmarkSparseVsDenseDense(b *testing.B) { benchmarkEngine(b, 800, Options{engine: engineDense}) }

// BenchmarkDevexOn/Off isolates the pricing rule on the 800-var block:
// devex scans a bounded candidate window per iteration where full Dantzig
// prices every nonbasic column, so the win is per-pivot cost at near-equal
// iteration counts.
func BenchmarkDevexOn(b *testing.B) { benchmarkEngine(b, 800, Options{engine: engineSparse}) }

func BenchmarkDevexOff(b *testing.B) {
	disableDevex = true
	defer func() { disableDevex = false }()
	benchmarkEngine(b, 800, Options{engine: engineSparse})
}

// pigeonBenchModel is the infeasibility-heavy pigeonhole tree (holes+1
// items into holes): almost every node is LP-infeasible, which is where
// per-node bound tightening pays — infeasibility caught by propagation
// costs zero simplex iterations.
func pigeonBenchModel(holes int) *Model {
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

// BenchmarkPresolveOn/Off isolates the per-node bound tightening and
// reduced-cost fixing on the pigeonhole tree (total simplex iterations
// should drop sharply with presolve on, at identical verdicts).
func benchmarkPresolve(b *testing.B, opt Options) {
	m := pigeonBenchModel(5)
	iters, nodes := 0, 0
	for i := 0; i < b.N; i++ {
		sol, err := Solve(m, opt)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != StatusInfeasible {
			b.Fatalf("status %v", sol.Status)
		}
		iters += sol.Iters
		nodes += sol.Nodes
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes")
}

func BenchmarkPresolveOn(b *testing.B) { benchmarkPresolve(b, Options{}) }

func BenchmarkPresolveOff(b *testing.B) { benchmarkPresolve(b, Options{noPresolve: true}) }

// manyBlocksModel lays out nBlocks independent sub-problems the way the
// explanation encoder lays out one Fig 7c partition: every tuple's x, y, I*
// columns and IndicatorEq rows first, then each match's z with its z_x rows,
// then cover rows, then the ProductBinaryCont terms and impact-equality row
// of each right tuple. A block is 1-3 left tuples matched to one right tuple
// whose impact differs from their sum in one block out of three, so the
// rows of a block are spread across the whole model.
func manyBlocksModel(nBlocks int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	const lo, hi = -50.0, 50.0
	m := NewModel("manyblocks", Maximize)
	type tuple struct{ x, y, iv Var }
	addTuple := func(impact float64) tuple {
		t := tuple{m.AddVar(0, 1, Binary, "x"), m.AddVar(0, 1, Binary, "y"), m.AddVar(lo, hi, Continuous, "I")}
		m.SetBranchPriority(t.x, 1)
		m.IndicatorEq(t.y, t.iv, impact, lo, hi, "imp")
		m.AddConstr([]Term{{t.y, 1}, {t.x, 1}}, LE, 1, "y_le_notx")
		m.SetObjCoef(t.x, -2)
		m.SetObjCoef(t.y, 1)
		return t
	}
	lefts := make([][]tuple, nBlocks)
	rights := make([]tuple, nBlocks)
	for b := range lefts {
		sum := 0.0
		for k := 1 + rng.Intn(3); k > 0; k-- {
			impact := float64(1 + rng.Intn(9))
			sum += impact
			lefts[b] = append(lefts[b], addTuple(impact))
		}
		if b%3 == 0 {
			sum++
		}
		rights[b] = addTuple(sum)
	}
	zs := make([][]Var, nBlocks)
	for b, ls := range lefts {
		for _, l := range ls {
			z := m.AddVar(0, 1, Binary, "z")
			m.SetBranchPriority(z, 2)
			m.SetObjCoef(z, 1.5)
			m.AddConstr([]Term{{z, 1}, {l.x, 1}}, LE, 1, "z_xl")
			m.AddConstr([]Term{{z, 1}, {rights[b].x, 1}}, LE, 1, "z_xr")
			zs[b] = append(zs[b], z)
		}
	}
	for b, ls := range lefts {
		for k, l := range ls {
			m.AddConstr([]Term{{zs[b][k], 1}, {l.x, 1}}, GE, 1, "covL")
		}
		cover := []Term{{rights[b].x, 1}}
		for _, z := range zs[b] {
			cover = append(cover, Term{z, 1})
		}
		m.AddConstr(cover, GE, 1, "covR")
	}
	for b, ls := range lefts {
		eq := []Term{{rights[b].iv, -1}}
		for k, l := range ls {
			eq = append(eq, Term{m.ProductBinaryCont(zs[b][k], l.iv, lo, hi, "zi"), 1})
		}
		m.AddConstr(eq, EQ, 0, "impeq")
	}
	return m
}

// BenchmarkSolveManyBlocks assembles and solves a model of 500
// independent blocks, the shape of one large encoded partition: row merging
// and block extraction, not simplex work, decide its cost when they are not
// linear in the model's size.
func BenchmarkSolveManyBlocks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(manyBlocksModel(500, 1), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != StatusOptimal || sol.Blocks != 500 {
			b.Fatalf("status %v, %d blocks", sol.Status, sol.Blocks)
		}
	}
}
