package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"explain3d/internal/linkage"
	"explain3d/internal/milp"
)

// encodeAll places sub in w, splits it and encodes every component into
// w's model; it returns the batch.
func encodeAll(w *worker, sub *subProblem) []int32 {
	w.place(sub)
	w.splitSub()
	lo, hi := w.impactBounds()
	batch := make([]int32, w.nc)
	for c := range batch {
		batch[c] = int32(c)
	}
	w.encode(batch, lo, hi)
	return batch
}

// sameExplanations reports whether a and b are equal field for field,
// with refined impacts compared bit for bit.
func sameExplanations(a, b *Explanations) bool {
	if !reflect.DeepEqual(a.Prov, b.Prov) || !reflect.DeepEqual(a.Evidence, b.Evidence) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Val {
		x, y := a.Val[i], b.Val[i]
		if x.Side != y.Side || x.Tuple != y.Tuple || math.Float64bits(x.NewImpact) != math.Float64bits(y.NewImpact) {
			return false
		}
	}
	return true
}

// sameCompSol reports whether two component solutions are equal, refined
// impacts bit for bit.
func sameCompSol(a, b *compSol) bool {
	if !reflect.DeepEqual(a.kind, b.kind) || !reflect.DeepEqual(a.evid, b.evid) ||
		a.vars != b.vars || a.rows != b.rows || a.dense != b.dense {
		return false
	}
	for i := range a.impact {
		if math.Float64bits(a.impact[i]) != math.Float64bits(b.impact[i]) {
			return false
		}
	}
	return true
}

// randomSubProblem is one sub-problem over a random instance: up to 5
// tuples a side with sparse matches (so some tuples stay unmatched), either
// grouping direction, negative impacts in a quarter of the trials, and
// with probability ½ a copy of the whole graph at shifted ids, so equal
// components repeat. Tuples and matches are listed in shuffled order.
func randomSubProblem(rng *rand.Rand, trial int) (*Instance, *subProblem) {
	nl, nr := 1+rng.Intn(5), 1+rng.Intn(5)
	impact := func() float64 {
		switch {
		case trial%4 == 3:
			return float64(rng.Intn(7) - 3)
		case rng.Intn(4) == 0:
			return 5 * rng.Float64()
		}
		return float64(rng.Intn(6))
	}
	t1, t2 := &Canonical{}, &Canonical{}
	for i := 0; i < nl; i++ {
		t1.Impacts = append(t1.Impacts, impact())
		t1.Keys = append(t1.Keys, "l")
	}
	for j := 0; j < nr; j++ {
		t2.Impacts = append(t2.Impacts, impact())
		t2.Keys = append(t2.Keys, "r")
	}
	var matches []linkage.Match
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			if rng.Float64() < 0.3 {
				matches = append(matches, linkage.Match{L: i, R: j, P: 0.05 + 0.94*rng.Float64()})
			}
		}
	}
	if rng.Intn(2) == 0 {
		t1.Impacts = append(t1.Impacts, t1.Impacts...)
		t1.Keys = append(t1.Keys, t1.Keys...)
		t2.Impacts = append(t2.Impacts, t2.Impacts...)
		t2.Keys = append(t2.Keys, t2.Keys...)
		for _, m := range matches {
			matches = append(matches, linkage.Match{L: m.L + nl, R: m.R + nr, P: m.P})
		}
	}
	card := []Cardinality{{LeftAtMostOne: true, RightAtMostOne: true},
		{LeftAtMostOne: true}, {RightAtMostOne: true}}[rng.Intn(3)]
	inst := &Instance{T1: t1, T2: t2, Matches: matches, Card: card}
	sub := &subProblem{left: rng.Perm(t1.Len()), right: rng.Perm(t2.Len()), matches: append([]linkage.Match(nil), matches...)}
	rng.Shuffle(len(sub.matches), func(a, b int) { sub.matches[a], sub.matches[b] = sub.matches[b], sub.matches[a] })
	return inst, sub
}

// TestComponentSolveMatchesWholeSubProblem pins the invariant behind
// byte-identical answers. Over random sub-problems, the split's component
// count equals the blocks of the whole sub-problem encoded as one model;
// solving the components (through the memo, in one batch) gives the whole
// model's explanations, sizes, engine choices and, when nothing is
// replayed, its search counts; and solving each component alone gives the
// batch's component solution bit for bit.
func TestComponentSolveMatchesWholeSubProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := DefaultParams()
	hits := 0
	for trial := 0; trial < 120; trial++ {
		inst, sub := randomSubProblem(rng, trial)
		ref := refEncode(milp.NewModel("ref", milp.Maximize), inst, sub, p)
		refSol, err := milp.Solve(ref.model, milp.Options{WarmStart: refWarmStart(inst, ref)})
		if err != nil || refSol.Status != milp.StatusOptimal {
			t.Fatalf("trial %d: reference solve %v, %+v", trial, err, refSol)
		}
		want := refDecode(inst, ref, refSol)

		w := newWorker(inst, p)
		w.place(sub)
		var st Stats
		sols, ok, err := w.solve(context.Background(), &compMemo{}, &st)
		if err != nil || !ok || st.TimedOut {
			t.Fatalf("trial %d: component solve %v, ok %v, %+v", trial, err, ok, st)
		}
		if int(w.nc) != refSol.Blocks {
			t.Fatalf("trial %d: %d components, whole model has %d blocks", trial, w.nc, refSol.Blocks)
		}
		got := w.assemble(sols).globalize(sub)
		if !sameExplanations(got, want) {
			t.Fatalf("trial %d (card %+v): components give %+v, whole model %+v", trial, inst.Card, got, want)
		}
		if st.MILPVars != ref.model.NumVars() || st.MILPRows != ref.model.NumRows() ||
			st.DenseBlocks != refSol.DenseBlocks || st.SparseBlocks != refSol.SparseBlocks {
			t.Fatalf("trial %d: stats %+v, whole model %d vars, %d rows, %+v",
				trial, st, ref.model.NumVars(), ref.model.NumRows(), refSol)
		}
		if st.MemoHits == 0 && (st.Nodes != refSol.Nodes || st.Iters != refSol.Iters) {
			t.Fatalf("trial %d: %d nodes and %d iterations, whole model %d and %d",
				trial, st.Nodes, st.Iters, refSol.Nodes, refSol.Iters)
		}
		hits += st.MemoHits

		alone := newWorker(inst, p)
		alone.place(sub)
		alone.splitSub()
		lo, hi := alone.impactBounds()
		for c := int32(0); c < alone.nc; c++ {
			batch := []int32{c}
			alone.encode(batch, lo, hi)
			sol, err := milp.Solve(alone.m, milp.Options{WarmStart: alone.warmStart(batch)})
			if err != nil || sol.Status != milp.StatusOptimal {
				t.Fatalf("trial %d component %d: %v, %+v", trial, c, err, sol)
			}
			if cs := alone.read(sol, 0, c); !sameCompSol(cs, sols[c]) {
				t.Fatalf("trial %d component %d: alone %+v, in the batch %+v", trial, c, cs, sols[c])
			}
		}
	}
	if hits == 0 {
		t.Fatal("no component was replayed")
	}
}

// TestComponentKeyDistinguishes: components that differ by one ulp of an
// impact, a prior, a match probability or an impact bound, by a
// cardinality flag or by a swapped endpoint never share a key; equal
// content at other canonical ids does.
func TestComponentKeyDistinguishes(t *testing.T) {
	base := func() (*Instance, *subProblem) {
		inst := &Instance{
			T1:      &Canonical{Impacts: []float64{2, 3}, Keys: []string{"a", "b"}},
			T2:      &Canonical{Impacts: []float64{2, 4}, Keys: []string{"x", "y"}},
			Matches: []linkage.Match{{L: 0, R: 0, P: 0.9}, {L: 0, R: 1, P: 0.6}, {L: 1, R: 1, P: 0.7}},
			Card:    Cardinality{LeftAtMostOne: true, RightAtMostOne: true},
		}
		return inst, &subProblem{left: []int{0, 1}, right: []int{0, 1}, matches: inst.Matches}
	}
	inst, sub := base()
	w := newWorker(inst, DefaultParams())
	w.place(sub)
	w.splitSub()
	lo, hi := w.impactBounds()
	keyOf := func(inst *Instance, sub *subProblem, p Params, lo, hi float64) string {
		w := newWorker(inst, p)
		w.place(sub)
		w.splitSub()
		if w.nc != 1 {
			t.Fatalf("%d components, want 1", w.nc)
		}
		return string(w.appendCompKey(nil, 0, lo, hi))
	}
	want := keyOf(inst, sub, DefaultParams(), lo, hi)

	up := func(f float64) float64 { return math.Nextafter(f, math.Inf(1)) }
	onFirst := func(v float64) func(Side, int) float64 {
		return func(side Side, id int) float64 {
			if side == Left && id == 0 {
				return v
			}
			return 0 // out of range: the call-wide prior
		}
	}
	variants := []struct {
		name string
		edit func(inst *Instance, sub *subProblem, p *Params, lo, hi *float64)
	}{
		{"impact ulp", func(inst *Instance, _ *subProblem, _ *Params, _, _ *float64) { inst.T2.Impacts[1] = up(4) }},
		{"alpha ulp", func(_ *Instance, _ *subProblem, p *Params, _, _ *float64) { p.AlphaOf = onFirst(up(p.Alpha)) }},
		{"beta ulp", func(_ *Instance, _ *subProblem, p *Params, _, _ *float64) { p.BetaOf = onFirst(up(p.Beta)) }},
		{"probability ulp", func(_ *Instance, sub *subProblem, _ *Params, _, _ *float64) { sub.matches[1].P = up(0.6) }},
		{"lo ulp", func(_ *Instance, _ *subProblem, _ *Params, lo, _ *float64) {
			*lo = math.Nextafter(*lo, math.Inf(-1))
		}},
		{"hi ulp", func(_ *Instance, _ *subProblem, _ *Params, _, hi *float64) { *hi = up(*hi) }},
		{"left at most one", func(inst *Instance, _ *subProblem, _ *Params, _, _ *float64) { inst.Card.LeftAtMostOne = false }},
		{"right at most one", func(inst *Instance, _ *subProblem, _ *Params, _, _ *float64) { inst.Card.RightAtMostOne = false }},
		{"swapped endpoint", func(_ *Instance, sub *subProblem, _ *Params, _, _ *float64) {
			sub.matches[1] = linkage.Match{L: 1, R: 0, P: 0.6}
		}},
	}
	for _, v := range variants {
		inst, sub := base()
		sub.matches = append([]linkage.Match(nil), sub.matches...)
		p, vlo, vhi := DefaultParams(), lo, hi
		v.edit(inst, sub, &p, &vlo, &vhi)
		if keyOf(inst, sub, p, vlo, vhi) == want {
			t.Errorf("%s: shares the base component's key", v.name)
		}
	}

	// The same component behind an unmatched tuple on each side: other
	// ids and sub positions, one more component, an equal key.
	shifted := &Instance{
		T1:   &Canonical{Impacts: []float64{9, 2, 3}, Keys: []string{"z", "a", "b"}},
		T2:   &Canonical{Impacts: []float64{9, 2, 4}, Keys: []string{"z", "x", "y"}},
		Card: inst.Card,
	}
	for _, m := range inst.Matches {
		shifted.Matches = append(shifted.Matches, linkage.Match{L: m.L + 1, R: m.R + 1, P: m.P})
	}
	ws := newWorker(shifted, DefaultParams())
	ws.place(&subProblem{left: []int{0, 1, 2}, right: []int{0, 1, 2}, matches: shifted.Matches})
	ws.splitSub()
	if ws.nc != 3 {
		t.Fatalf("shifted: %d components, want 3", ws.nc)
	}
	if got := string(ws.appendCompKey(nil, 1, lo, hi)); got != want {
		t.Fatal("equal content at other ids gets another key")
	}
}

// TestComponentMemoJoinsInFlight: workers asking for a component another
// worker is searching wait for it, so each distinct component is searched
// once however many ask. When the search is cut short, each waiter
// searches the component itself and the entry is gone.
func TestComponentMemoJoinsInFlight(t *testing.T) {
	inst := clusteredInstance(3)
	sub := &subProblem{matches: inst.Matches}
	for i := 0; i < inst.T1.Len(); i++ {
		sub.left = append(sub.left, i)
	}
	for j := 0; j < inst.T2.Len(); j++ {
		sub.right = append(sub.right, j)
	}
	p := DefaultParams()
	solveWith := func(memo *compMemo) (*Explanations, Stats) {
		w := newWorker(inst, p)
		w.place(sub)
		var st Stats
		sols, ok, err := w.solve(context.Background(), memo, &st)
		if err != nil || !ok {
			t.Errorf("solve: %v, ok %v", err, ok)
			return nil, st
		}
		return w.assemble(sols).globalize(sub), st
	}
	want, alone := solveWith(&compMemo{})
	if alone.MemoHits != 0 || alone.Nodes == 0 {
		t.Fatalf("alone: %+v", alone)
	}
	const callers = 8
	nc := alone.DenseBlocks + alone.SparseBlocks
	solveAll := func(memo *compMemo) []Stats {
		stats := make([]Stats, callers)
		var wg sync.WaitGroup
		for i := range stats {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, st := solveWith(memo)
				if got != nil && !sameExplanations(got, want) {
					t.Errorf("caller %d: %+v, want %+v", i, got, want)
				}
				stats[i] = st
			}()
		}
		wg.Wait()
		return stats
	}

	nodes, hits := 0, 0
	for _, st := range solveAll(&compMemo{}) {
		nodes += st.Nodes
		hits += st.MemoHits
	}
	if nodes != alone.Nodes || hits != (callers-1)*nc {
		t.Fatalf("%d nodes and %d hits over %d callers, want %d and %d", nodes, hits, callers, alone.Nodes, (callers-1)*nc)
	}

	// Hold component 0's entry as its creator, let the callers queue
	// behind it, then release it cut short: each caller searches it
	// itself, and the memo keeps no cut-short entry (a caller that arrives
	// only after the release claims and publishes a fresh one).
	memo := &compMemo{}
	w := newWorker(inst, p)
	w.place(sub)
	w.splitSub()
	lo, hi := w.impactBounds()
	key := w.appendCompKey(nil, 0, lo, hi)
	e, created := memo.claim(key)
	if !created {
		t.Fatal("fresh memo already holds the component")
	}
	done := make(chan []Stats)
	go func() { done <- solveAll(memo) }()
	time.Sleep(50 * time.Millisecond)
	memo.finish(e, nil)
	for _, st := range <-done {
		if st.MemoHits > nc-1 {
			t.Fatalf("caller after a cut-short creator: %+v", st)
		}
	}
	memo.mu.Lock()
	left, kept := memo.entries[string(key)]
	memo.mu.Unlock()
	if left == e || (kept && left.sol == nil) {
		t.Fatal("a cut-short component left its entry")
	}
}

// TestComponentMemoSkipsCutShortComponents: components whose search is cut
// short by a cancelled context or an expired deadline (the warm start's
// incumbent kept, TimedOut set) are never stored, and the next solve
// through the same memo searches them again and matches a fresh solve.
func TestComponentMemoSkipsCutShortComponents(t *testing.T) {
	inst := clusteredInstance(3)
	sub := &subProblem{matches: inst.Matches}
	for i := 0; i < inst.T1.Len(); i++ {
		sub.left = append(sub.left, i)
	}
	for j := 0; j < inst.T2.Len(); j++ {
		sub.right = append(sub.right, j)
	}
	p := DefaultParams()
	solveWith := func(ctx context.Context, memo *compMemo) (*Explanations, Stats) {
		w := newWorker(inst, p)
		w.place(sub)
		var st Stats
		sols, ok, err := w.solve(ctx, memo, &st)
		if err != nil || !ok {
			t.Fatalf("solve: %v, ok %v", err, ok)
		}
		return w.assemble(sols).globalize(sub), st
	}
	want, alone := solveWith(context.Background(), &compMemo{})
	if alone.TimedOut || alone.Nodes == 0 {
		t.Fatalf("alone: %+v", alone)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"canceled", canceled}, {"deadline", expired}} {
		memo := &compMemo{}
		if _, st := solveWith(c.ctx, memo); !st.TimedOut || st.MemoHits != 0 {
			t.Fatalf("%s: %+v, want TimedOut", c.name, st)
		}
		memo.mu.Lock()
		n := len(memo.entries)
		memo.mu.Unlock()
		if n != 0 {
			t.Fatalf("%s: %d entries stored", c.name, n)
		}
		got, st := solveWith(context.Background(), memo)
		if st.TimedOut || st.MemoHits != 0 || st.Nodes != alone.Nodes || !sameExplanations(got, want) {
			t.Fatalf("%s: re-solve %+v, want %+v", c.name, st, alone)
		}
	}
}
