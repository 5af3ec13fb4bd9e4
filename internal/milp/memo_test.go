package milp

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// sameBits fails unless got and want are bit-for-bit equal.
func sameBits(t *testing.T, where string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", where, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x%d = %v, want %v", where, i, got[i], want[i])
		}
	}
}

// TestMemoIdenticalBlocks: a block equal to one solved before is replayed,
// within one model and across calls sharing a memo, with x bit-equal to an
// unmemoized solve and no nodes or iterations of its own.
func TestMemoIdenticalBlocks(t *testing.T) {
	block := benchModel(14, 102)
	alone, err := Solve(block, Options{})
	if err != nil || alone.Status != StatusOptimal || alone.Nodes < 2 {
		t.Fatalf("block alone: %v, %+v", err, alone)
	}

	two := NewModel("two", Maximize)
	appendModel(two, block)
	appendModel(two, block)
	plain, err := Solve(two, Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo, err := Solve(two, Options{Memo: &Memo{}})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "one model", memo.X, plain.X)
	if plain.MemoHits != 0 || memo.MemoHits != 1 || memo.Objective != plain.Objective ||
		memo.Nodes != alone.Nodes || memo.Iters != alone.Iters || memo.DenseBlocks != plain.DenseBlocks {
		t.Fatalf("one model: memo %+v, plain %+v, alone %+v", memo, plain, alone)
	}

	shared := &Memo{}
	for call := 0; call < 2; call++ {
		sol, err := SolveContext(context.Background(), block, Options{Memo: shared})
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "across calls", sol.X, alone.X)
		nodes := alone.Nodes
		if call == 1 {
			nodes = 0
		}
		if sol.MemoHits != call || sol.Nodes != nodes || sol.Objective != alone.Objective || sol.DenseBlocks != 1 {
			t.Fatalf("call %d: %+v", call, sol)
		}
	}
}

// memoBlock is a one-block model with binary and continuous variables.
func memoBlock() *Model {
	m := NewModel("memo", Maximize)
	x, y := m.AddVar(0, 1, Binary, "x"), m.AddVar(0, 1, Binary, "y")
	z := m.AddVar(0, 10, Continuous, "z")
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, 2)
	m.SetObjCoef(z, 0.5)
	m.AddConstr([]Term{{x, 2}, {y, 3}, {z, 1}}, LE, 4.5, "cap")
	m.AddConstr([]Term{{x, 1}, {y, 1}}, LE, 1, "one")
	return m
}

// TestMemoKeyDistinguishes: blocks that differ by one ulp of a coefficient,
// a bound, a warm-start value, or by a branch priority or a solver hook
// never share an entry; blocks that differ only in names do.
func TestMemoKeyDistinguishes(t *testing.T) {
	zero := make([]float64, 3)
	ulp := []float64{0, 0, math.Nextafter(0, 1)}
	variants := []struct {
		name string
		edit func(m *Model, opt *Options)
	}{
		{"coefficient ulp", func(m *Model, _ *Options) { m.rows[0].terms[0].Coef = math.Nextafter(2, 3) }},
		{"rhs ulp", func(m *Model, _ *Options) { m.rows[1].rhs = math.Nextafter(1, 2) }},
		{"bound ulp", func(m *Model, _ *Options) { m.vars[2].ub = math.Nextafter(10, 11) }},
		{"objective ulp", func(m *Model, _ *Options) { m.vars[2].obj = math.Nextafter(0.5, 1) }},
		{"priority", func(m *Model, _ *Options) { m.SetBranchPriority(1, 1) }},
		{"sense", func(m *Model, _ *Options) { m.sense = Minimize }},
		{"warm start", func(_ *Model, opt *Options) { opt.WarmStart = zero }},
		{"cold", func(_ *Model, opt *Options) { opt.cold = true }},
		{"no presolve", func(_ *Model, opt *Options) { opt.noPresolve = true }},
		{"sparse engine", func(_ *Model, opt *Options) { opt.engine = engineSparse }},
		{"dense engine", func(_ *Model, opt *Options) { opt.engine = engineDense }},
	}
	for _, base := range [][]float64{nil, ulp} {
		for _, v := range variants {
			memo := &Memo{}
			m := memoBlock()
			if _, err := Solve(m, Options{WarmStart: base, Memo: memo}); err != nil {
				t.Fatal(err)
			}
			opt := Options{WarmStart: base, Memo: memo}
			v.edit(m, &opt)
			sol, err := Solve(m, opt)
			if err != nil || sol.Status != StatusOptimal {
				t.Fatalf("%s: %v, %+v", v.name, err, sol)
			}
			if sol.MemoHits != 0 {
				t.Fatalf("%s (base warm %v): shares the base block's entry", v.name, base)
			}
			if again, err := Solve(m, opt); err != nil || again.MemoHits != 1 {
				t.Fatalf("%s: the variant itself is not replayed: %v, %+v", v.name, err, again)
			}
		}
	}

	memo := &Memo{}
	if _, err := Solve(memoBlock(), Options{Memo: memo}); err != nil {
		t.Fatal(err)
	}
	renamed := memoBlock()
	renamed.Name, renamed.vars[0].name, renamed.rows[0].name = "other", "a", "b"
	if sol, err := Solve(renamed, Options{Memo: memo}); err != nil || sol.MemoHits != 1 {
		t.Fatalf("renamed block: %v, %+v", err, sol)
	}
}

// memoLen reads the number of stored entries.
func memoLen(m *Memo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// TestMemoSkipsCutShortBlocks: a block cut short by a cancelled context or
// an expired deadline (StatusLimit with a warm incumbent, StatusNoSolution
// without) is never stored, and the next solve searches it again.
func TestMemoSkipsCutShortBlocks(t *testing.T) {
	m := knapsack(t)
	warm := make([]float64, m.NumVars())
	warm[5] = 1
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		opt  Options
		want Status
	}{
		{"canceled", canceled, Options{}, StatusNoSolution},
		{"canceled warm", canceled, Options{WarmStart: warm}, StatusLimit},
		{"deadline", context.Background(), Options{TimeLimit: time.Nanosecond}, StatusNoSolution},
		{"deadline warm", context.Background(), Options{TimeLimit: time.Nanosecond, WarmStart: warm}, StatusLimit},
	}
	for _, c := range cases {
		memo := &Memo{}
		c.opt.Memo = memo
		sol, err := SolveContext(c.ctx, m, c.opt)
		if err != nil || sol.Status != c.want {
			t.Fatalf("%s: %v, %+v", c.name, err, sol)
		}
		if n := memoLen(memo); n != 0 {
			t.Fatalf("%s: %d entries stored", c.name, n)
		}
		c.opt.TimeLimit = 0
		plain, err := Solve(m, Options{WarmStart: c.opt.WarmStart})
		if err != nil {
			t.Fatal(err)
		}
		again, err := SolveContext(context.Background(), m, c.opt)
		if err != nil || again.Status != StatusOptimal || again.MemoHits != 0 || again.Nodes != plain.Nodes {
			t.Fatalf("%s: re-solve %v, %+v", c.name, err, again)
		}
		sameBits(t, c.name, again.X, plain.X)
	}
}

// TestMemoJoinsInFlight: callers asking for a block another caller is
// solving wait for it, so the block is searched once however many ask.
// When the solver's result is not optimal, each waiter solves the block
// itself and the entry is gone.
func TestMemoJoinsInFlight(t *testing.T) {
	block := benchModel(14, 102)
	alone, err := Solve(block, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	solveAll := func(memo *Memo) []*Solution {
		sols := make([]*Solution, callers)
		var wg sync.WaitGroup
		for i := range sols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sol, err := Solve(block, Options{Memo: memo})
				if err != nil {
					t.Error(err)
				}
				sols[i] = sol
			}()
		}
		wg.Wait()
		return sols
	}

	nodes, hits := 0, 0
	for _, sol := range solveAll(&Memo{}) {
		sameBits(t, "joined", sol.X, alone.X)
		nodes += sol.Nodes
		hits += sol.MemoHits
	}
	if nodes != alone.Nodes || hits != callers-1 {
		t.Fatalf("%d nodes and %d hits over %d callers, want %d and %d", nodes, hits, callers, alone.Nodes, callers-1)
	}

	// Hold the entry as its creator, let the callers queue behind it, then
	// publish a cut-short result. A caller that arrives only after that
	// finds no entry: it creates one, and later arrivals join it.
	memo := &Memo{}
	key := appendKey(nil, block, nil, Options{})
	e, created := memo.claim(key)
	if !created {
		t.Fatal("fresh memo already holds the block")
	}
	done := make(chan []*Solution)
	go func() { done <- solveAll(memo) }()
	time.Sleep(50 * time.Millisecond)
	memo.finish(key, e, bbResult{status: StatusLimit})
	hits = 0
	for _, sol := range <-done {
		sameBits(t, "after a cut-short creator", sol.X, alone.X)
		searched := sol.MemoHits == 0 && sol.Nodes == alone.Nodes
		if !searched && (sol.MemoHits != 1 || sol.Nodes != 0) {
			t.Fatalf("caller after a cut-short creator: %+v", sol)
		}
		hits += sol.MemoHits
	}
	if n := memoLen(memo); n > 1 || (hits > 0 && n != 1) {
		t.Fatalf("%d entries left, %d hits after a cut-short creator", n, hits)
	}
}
