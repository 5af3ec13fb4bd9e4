package milp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// denseFromRows expands rowData into a dense matrix over the structural
// columns, the ground truth the CSC/CSR forms must reproduce.
func denseFromRows(nv int, rows []rowData) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = make([]float64, nv)
		for _, t := range r.terms {
			out[i][t.Var] += t.Coef
		}
	}
	return out
}

func TestSparseMatrixConstruction(t *testing.T) {
	rows := []rowData{
		{terms: []Term{{0, 2}, {2, -1}}, sense: LE, rhs: 4},
		{terms: []Term{{1, 3}}, sense: GE, rhs: 1},
		{terms: []Term{{0, 1}, {1, 1}, {2, 1}}, sense: EQ, rhs: 2},
	}
	nv := 3
	a := newSparseMatrix(nv, rows)
	if a.m != 3 || a.nv != 3 || a.nSlack != 2 || a.n != 3+2+3 {
		t.Fatalf("dims: m=%d nv=%d nSlack=%d n=%d", a.m, a.nv, a.nSlack, a.n)
	}
	want := denseFromRows(nv, rows)
	// CSC agrees with the dense expansion.
	for j := 0; j < nv; j++ {
		got := make([]float64, a.m)
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			got[a.rowIdx[p]] += a.colVal[p]
		}
		for i := 0; i < a.m; i++ {
			if got[i] != want[i][j] {
				t.Fatalf("CSC[%d][%d] = %v, want %v", i, j, got[i], want[i][j])
			}
		}
	}
	// CSR agrees with the dense expansion.
	for i := 0; i < a.m; i++ {
		got := make([]float64, nv)
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			got[a.colIdx[p]] += a.rowVal[p]
		}
		for j := 0; j < nv; j++ {
			if got[j] != want[i][j] {
				t.Fatalf("CSR[%d][%d] = %v, want %v", i, j, got[j], want[i][j])
			}
		}
	}
	// Logical columns: LE slack +1 on row 0, GE slack -1 on row 1, EQ none;
	// one artificial per row.
	if a.slackOf[0] != 3 || a.slackSign[0] != 1 {
		t.Fatalf("row 0 slack: col %d sign %v", a.slackOf[0], a.slackSign[0])
	}
	if a.slackOf[1] != 4 || a.slackSign[1] != -1 {
		t.Fatalf("row 1 slack: col %d sign %v", a.slackOf[1], a.slackSign[1])
	}
	if a.slackOf[2] != -1 {
		t.Fatalf("row 2 (EQ) should have no slack, got col %d", a.slackOf[2])
	}
	for i := 0; i < a.m; i++ {
		r, v := a.colEntry(a.artStart() + i)
		if int(r) != i || v != 1 {
			t.Fatalf("artificial %d: entry (%d, %v)", i, r, v)
		}
	}
}

// randomSquareRows builds m rows over m structural variables with a strong
// diagonal (guaranteed nonsingular structural basis) and random sparse
// off-diagonal entries.
func randomSquareRows(rng *rand.Rand, m int) []rowData {
	rows := make([]rowData, m)
	for i := 0; i < m; i++ {
		terms := []Term{{Var(i), 8 + rng.Float64()*4}}
		for k := 0; k < 3; k++ {
			j := rng.Intn(m)
			if j != i {
				terms = append(terms, Term{Var(j), rng.Float64()*2 - 1})
			}
		}
		rows[i] = rowData{terms: mergeTerms(nil, terms), sense: EQ, rhs: rng.Float64() * 10}
	}
	return rows
}

// mulBasis computes B·x for the basis columns (x indexed by basis
// position, result by row).
func mulBasis(a *sparseMatrix, basis []int, x []float64) []float64 {
	out := make([]float64, a.m)
	for p, j := range basis {
		if x[p] == 0 {
			continue
		}
		if j < a.nv {
			for q := a.colPtr[j]; q < a.colPtr[j+1]; q++ {
				out[a.rowIdx[q]] += a.colVal[q] * x[p]
			}
		} else {
			i, v := a.colEntry(j)
			out[i] += v * x[p]
		}
	}
	return out
}

func TestLUFtranBtranRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		m := 5 + rng.Intn(40)
		a := newSparseMatrix(m, randomSquareRows(rng, m))
		// Mix structural and artificial columns in the basis: replace a few
		// structural columns by their row's artificial (still nonsingular
		// thanks to the strong diagonal).
		basis := make([]int, m)
		for i := range basis {
			basis[i] = i
			if rng.Float64() < 0.2 {
				basis[i] = a.artStart() + i
			}
		}
		f, ok := factorizeBasis(a, basis)
		if !ok {
			t.Fatalf("trial %d: unexpected singular verdict", trial)
		}
		// FTRAN: B·(B⁻¹ b) = b.
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Float64()*4 - 2
		}
		in := append([]float64(nil), b...)
		x := make([]float64, m)
		ord := make([]float64, m)
		f.ftran(in, x, ord)
		back := mulBasis(a, basis, x)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d: FTRAN residual %v at row %d", trial, back[i]-b[i], i)
			}
		}
		// BTRAN: (Bᵀ y)[p] = y·A_{basis[p]} must reproduce c.
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.Float64()*4 - 2
		}
		y := make([]float64, m)
		f.btran(c, y, ord)
		for p, j := range basis {
			if got := a.dotCol(y, j); math.Abs(got-c[p]) > 1e-8 {
				t.Fatalf("trial %d: BTRAN residual %v at position %d", trial, got-c[p], p)
			}
		}
	}
}

func TestLUSingularBasis(t *testing.T) {
	rows := []rowData{
		{terms: []Term{{0, 1}, {1, 2}}, sense: EQ, rhs: 1},
		{terms: []Term{{0, 2}, {1, 4}}, sense: EQ, rhs: 2},
	}
	a := newSparseMatrix(2, rows)
	// Structurally singular: column 1 is exactly twice column 0 per row —
	// the basis {0, 1} has rank 1.
	if _, ok := factorizeBasis(a, []int{0, 1}); ok {
		t.Fatal("rank-1 basis factorized")
	}
	// Duplicate column: {0, 0}.
	if _, ok := factorizeBasis(a, []int{0, 0}); ok {
		t.Fatal("duplicate-column basis factorized")
	}
	// A valid basis of the same matrix still factors.
	if _, ok := factorizeBasis(a, []int{0, a.artStart() + 1}); !ok {
		t.Fatal("valid basis reported singular")
	}
}

func TestLUNearSingularBasis(t *testing.T) {
	// Column 1 = 2·column 0 + ε·e_1: numerically near-singular. Below the
	// pivot tolerance the factorization must refuse; above it, it must
	// factor and still solve accurately.
	build := func(eps float64) *sparseMatrix {
		rows := []rowData{
			{terms: []Term{{0, 1}, {1, 2}}, sense: EQ, rhs: 1},
			{terms: []Term{{0, 3}, {1, 6 + eps}}, sense: EQ, rhs: 2},
		}
		return newSparseMatrix(2, rows)
	}
	if _, ok := factorizeBasis(build(1e-12), []int{0, 1}); ok {
		t.Fatal("near-singular basis (ε=1e-12) factorized")
	}
	a := build(1e-4)
	f, ok := factorizeBasis(a, []int{0, 1})
	if !ok {
		t.Fatal("conditioned basis (ε=1e-4) reported singular")
	}
	b := []float64{1, 2}
	in := append([]float64(nil), b...)
	x := make([]float64, 2)
	ord := make([]float64, 2)
	f.ftran(in, x, ord)
	back := mulBasis(a, []int{0, 1}, x)
	for i := range b {
		if math.Abs(back[i]-b[i]) > 1e-6 {
			t.Fatalf("ε=1e-4 FTRAN residual %v at row %d", back[i]-b[i], i)
		}
	}
}

// solveSignature runs a cold solve and fingerprints every observable of
// the run: status, pivots, refactorizations, eta-file length, objective,
// and the solution vector.
type solveSignature struct {
	st        lpStatus
	pivots    int
	refactors int
	etas      int
	obj       float64
	x         []float64
}

func coldSignature(c, lb, ub []float64, rows []rowData) solveSignature {
	s := newSparseLP(c, rows)
	st := s.solveCold(lb, ub)
	sig := solveSignature{st: st, pivots: s.pivots, refactors: s.refactors, etas: len(s.etas)}
	if st == lpOptimal {
		sig.obj = s.objective()
		sig.x = s.values()
	}
	return sig
}

// TestEtaReplayDeterminism solves identical problems concurrently on
// separate instances and demands bit-identical trajectories — pivot
// counts, refactorizations, eta-file lengths, objectives, and solutions.
// Under -race this also proves the factorization and eta machinery share
// nothing mutable across instances.
func TestEtaReplayDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 40
	c := make([]float64, n)
	lb := make([]float64, n)
	ub := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = rng.Float64()*10 - 5
		ub[i] = 1 + rng.Float64()*3
	}
	var rows []rowData
	for r := 0; r < 30; r++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.15 {
				terms = append(terms, Term{Var(i), rng.Float64()*4 - 2})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := []ConstrSense{LE, GE}[rng.Intn(2)]
		rows = append(rows, rowData{terms: terms, sense: sense, rhs: rng.Float64()*6 - 1})
	}
	const workers = 8
	sigs := make([]solveSignature, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sigs[w] = coldSignature(c, lb, ub, rows)
		}(w)
	}
	wg.Wait()
	ref := sigs[0]
	if ref.st == lpOptimal && ref.pivots == 0 {
		t.Fatal("workload too trivial to exercise the eta file")
	}
	for w := 1; w < workers; w++ {
		s := sigs[w]
		if s.st != ref.st || s.pivots != ref.pivots || s.refactors != ref.refactors || s.etas != ref.etas || s.obj != ref.obj {
			t.Fatalf("worker %d diverged: %+v vs %+v", w, s, ref)
		}
		for i := range ref.x {
			if s.x[i] != ref.x[i] {
				t.Fatalf("worker %d: x[%d] = %v vs %v", w, i, s.x[i], ref.x[i])
			}
		}
	}
}

// TestSnapshotSharedEtaFile takes two snapshots of one solved state and
// replays a different bound change from each on separate instances,
// concurrently. Both snapshots share the parent's factorization and
// eta-file prefix; appends after restore must copy-on-write (capped
// slices), which -race verifies, and each replay must match a solve of the
// modified problem from scratch.
func TestSnapshotSharedEtaFile(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(6)
		c := make([]float64, n)
		lb := make([]float64, n)
		ub := make([]float64, n)
		for i := 0; i < n; i++ {
			c[i] = float64(rng.Intn(13) - 6)
			ub[i] = float64(1 + rng.Intn(4))
		}
		var rows []rowData
		for r := 0; r < 3+rng.Intn(3); r++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{Var(i), float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []ConstrSense{LE, GE}[rng.Intn(2)]
			rows = append(rows, rowData{terms: terms, sense: sense, rhs: float64(rng.Intn(9) - 2)})
		}
		parent := newSparseLP(c, rows)
		if parent.solveCold(lb, ub) != lpOptimal {
			continue
		}
		snaps := []*sparseSnap{parent.snapshot(), parent.snapshot()}
		// Two different branch-like bound changes, one per snapshot.
		j0, j1 := rng.Intn(n), rng.Intn(n)
		deltas := [][3]float64{{float64(j0), lb[j0], math.Max(lb[j0], ub[j0]-1)},
			{float64(j1), math.Min(ub[j1], lb[j1]+1), ub[j1]}}
		type res struct {
			st  lpStatus
			obj float64
		}
		warm := make([]res, 2)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				child := newSparseLP(c, rows)
				child.restore(snaps[w])
				j, lo, hi := int(deltas[w][0]), deltas[w][1], deltas[w][2]
				if !child.applyBound(j, lo, hi) {
					warm[w] = res{st: lpInfeasible}
					return
				}
				dst := child.dualIterate(dualPivotCap(child.m))
				if dst == lpOptimal {
					dst = child.primalIterate(false)
				}
				warm[w] = res{st: dst, obj: child.objective()}
			}(w)
		}
		wg.Wait()
		for w := 0; w < 2; w++ {
			j, lo, hi := int(deltas[w][0]), deltas[w][1], deltas[w][2]
			lb2 := append([]float64(nil), lb...)
			ub2 := append([]float64(nil), ub...)
			lb2[j], ub2[j] = lo, hi
			cold := newSparseLP(c, rows)
			cst := cold.solveCold(lb2, ub2)
			switch warm[w].st {
			case lpOptimal:
				if cst != lpOptimal {
					t.Fatalf("trial %d child %d: warm optimal (%v), cold %v", trial, w, warm[w].obj, cst)
				}
				if !almost(warm[w].obj, cold.objective()) {
					t.Fatalf("trial %d child %d: warm obj %v, cold obj %v", trial, w, warm[w].obj, cold.objective())
				}
			case lpInfeasible:
				if cst != lpInfeasible {
					t.Fatalf("trial %d child %d: warm infeasible, cold %v", trial, w, cst)
				}
			}
		}
	}
}
