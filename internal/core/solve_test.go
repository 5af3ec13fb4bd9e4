package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/milp"
)

// clusteredInstance builds a synthetic instance of n independent 2×2
// clusters with varied probabilities and impact mismatches, so smart
// partitioning yields many sub-problems and the optimum mixes provenance-
// and value-based explanations.
func clusteredInstance(n int) *Instance {
	t1 := &Canonical{}
	t2 := &Canonical{}
	var matches []linkage.Match
	for k := 0; k < n; k++ {
		l0, l1 := 2*k, 2*k+1
		r0, r1 := 2*k, 2*k+1
		t1.Impacts = append(t1.Impacts, float64(1+k%3), 2)
		t2.Impacts = append(t2.Impacts, float64(1+k%3), float64(2+k%2))
		matches = append(matches,
			linkage.Match{L: l0, R: r0, P: 0.95},
			linkage.Match{L: l1, R: r1, P: 0.55 + 0.01*float64(k%20)},
			linkage.Match{L: l0, R: r1, P: 0.15},
		)
	}
	return &Instance{T1: t1, T2: t2, Matches: matches,
		Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: true}}
}

// TestSolveInstanceWorkersDeterministic asserts the worker pool changes
// only the wall clock: explanations from Workers 1, 3, and 8 are
// identical, field for field, on a partitioned instance.
func TestSolveInstanceWorkersDeterministic(t *testing.T) {
	inst := clusteredInstance(12)
	p := DefaultParams()
	p.BatchSize = 6

	p.Workers = 1
	seq, seqStats, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.Partitions < 4 {
		t.Fatalf("expected many partitions, got %d", seqStats.Partitions)
	}
	if err := CheckComplete(inst, seq); err != nil {
		t.Fatalf("sequential solution incomplete: %v", err)
	}
	for _, workers := range []int{3, 8} {
		p.Workers = workers
		par, parStats, err := SolveInstance(inst, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Prov, par.Prov) {
			t.Errorf("Workers=%d: Prov diverges:\nseq %v\npar %v", workers, seq.Prov, par.Prov)
		}
		if !reflect.DeepEqual(seq.Val, par.Val) {
			t.Errorf("Workers=%d: Val diverges:\nseq %v\npar %v", workers, seq.Val, par.Val)
		}
		if !reflect.DeepEqual(seq.Evidence, par.Evidence) {
			t.Errorf("Workers=%d: Evidence diverges:\nseq %v\npar %v", workers, seq.Evidence, par.Evidence)
		}
		if !sameSolveCounts(seqStats, parStats) {
			t.Errorf("Workers=%d: stats diverge: seq %+v par %+v", workers, seqStats, parStats)
		}
	}
}

// sameSolveCounts compares the counts of two solves that must repeat at
// any worker count: sizes, searched work and replayed blocks.
func sameSolveCounts(a, b *Stats) bool {
	return a.Partitions == b.Partitions && a.MILPVars == b.MILPVars && a.MILPRows == b.MILPRows &&
		a.Nodes == b.Nodes && a.Iters == b.Iters && a.DenseBlocks == b.DenseBlocks &&
		a.SparseBlocks == b.SparseBlocks && a.MemoHits == b.MemoHits
}

// TestSolveInstanceScenarioWorkersDeterministic: at oneshot-stage1's shape
// the explanations and counts of Workers 2 and 4 equal Workers 1's, and
// the component memo replays every component but the first of each
// distinct one: 19998 components (one MILP block each), of which 1417 are
// distinct.
func TestSolveInstanceScenarioWorkersDeterministic(t *testing.T) {
	inst, p := scenarioInstance(t)
	p.Workers = 1
	seq, seqStats, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	const blocks, distinct = 19998, 1417
	if seqStats.TimedOut || seqStats.DenseBlocks+seqStats.SparseBlocks != blocks ||
		seqStats.MemoHits != blocks-distinct {
		t.Fatalf("stats %+v: want %d blocks and %d memo hits", *seqStats, blocks, blocks-distinct)
	}
	for _, workers := range []int{2, 4} {
		p.Workers = workers
		par, parStats, err := SolveInstance(inst, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("Workers=%d: explanations diverge from Workers=1", workers)
		}
		if !sameSolveCounts(seqStats, parStats) {
			t.Errorf("Workers=%d: stats diverge: seq %+v par %+v", workers, *seqStats, *parStats)
		}
	}
}

// TestSolveInstanceWorkersDefault exercises the GOMAXPROCS default
// (Workers = 0) against the sequential pipeline on the Figure 1 workload.
func TestSolveInstanceWorkersDefault(t *testing.T) {
	inst := clusteredInstance(5)
	p := DefaultParams()
	p.BatchSize = 4
	p.Workers = 1
	seq, _, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 0
	par, _, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("default worker count diverges from sequential:\nseq %+v\npar %+v", seq, par)
	}
}

func TestParamsWorkersValidation(t *testing.T) {
	p := DefaultParams()
	p.Workers = -1
	if _, _, err := SolveInstance(clusteredInstance(1), p); err == nil {
		t.Fatal("negative Workers should be rejected")
	}
}

func TestFilterMatchesEdgeCases(t *testing.T) {
	if got := FilterMatches(nil, 0.5); len(got) != 0 {
		t.Fatalf("nil input should filter to empty, got %v", got)
	}
	in := []linkage.Match{{L: 0, R: 0, P: 0.4}, {L: 1, R: 1, P: 0.5}, {L: 2, R: 2, P: 0.6}}
	got := FilterMatches(in, 0.5)
	if len(got) != 2 || got[0].L != 1 || got[1].L != 2 {
		t.Fatalf("floor should keep matches with P >= 0.5, got %v", got)
	}
	if got := FilterMatches(in, 0.99); len(got) != 0 {
		t.Fatalf("floor above all probabilities should drop everything, got %v", got)
	}
}

func TestSplitInstanceZeroMatches(t *testing.T) {
	inst := &Instance{
		T1:   &Canonical{Impacts: []float64{1, 2, 3}},
		T2:   &Canonical{Impacts: []float64{4, 5}},
		Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: true},
	}
	for _, batch := range []int{0, 2} {
		p := DefaultParams()
		p.BatchSize = batch
		subs, err := splitInstance(inst, p)
		if err != nil {
			t.Fatalf("BatchSize=%d: %v", batch, err)
		}
		seenL, seenR := map[int]bool{}, map[int]bool{}
		for _, sub := range subs {
			if len(sub.matches) != 0 {
				t.Fatalf("BatchSize=%d: sub-problem has matches %v without any in the instance", batch, sub.matches)
			}
			for _, id := range sub.left {
				if seenL[id] {
					t.Fatalf("BatchSize=%d: left tuple %d in two partitions", batch, id)
				}
				seenL[id] = true
			}
			for _, id := range sub.right {
				if seenR[id] {
					t.Fatalf("BatchSize=%d: right tuple %d in two partitions", batch, id)
				}
				seenR[id] = true
			}
		}
		if len(seenL) != 3 || len(seenR) != 2 {
			t.Fatalf("BatchSize=%d: partitions cover %d left, %d right tuples; want 3 and 2", batch, len(seenL), len(seenR))
		}
	}
	// End to end: with no evidence available, every tuple is deleted.
	expl, _, err := SolveInstance(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Prov) != 5 || len(expl.Val) != 0 || len(expl.Evidence) != 0 {
		t.Fatalf("zero-match instance should delete everything, got %+v", expl)
	}
}

// TestSolveInstanceCanceledBudget checks the shared-deadline path: a
// nominal budget that expires immediately must still return a complete
// (all-deleted) fallback with TimedOut set, at any worker count.
func TestSolveInstanceCanceledBudget(t *testing.T) {
	inst := clusteredInstance(8)
	for _, workers := range []int{1, 4} {
		p := DefaultParams()
		p.BatchSize = 6
		p.Workers = workers
		p.SolverTimeLimit = 1 // one nanosecond: expires before any node
		expl, stats, err := SolveInstance(inst, p)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.TimedOut {
			t.Fatalf("Workers=%d: expected TimedOut with a 1ns budget", workers)
		}
		if err := CheckComplete(inst, expl); err != nil {
			t.Fatalf("Workers=%d: fallback explanations incomplete: %v", workers, err)
		}
	}
}

// Regression: buildSubProblems must not treat nodes the partitioner left
// unassigned as members of partition 0. A match between two unassigned
// nodes used to be appended to subs[0] even though its tuples are not in
// that sub-problem's left/right, corrupting the encode.
func TestBuildSubProblemsDropsUnassignedNodes(t *testing.T) {
	inst := &Instance{
		T1:      &Canonical{Impacts: []float64{1, 2}},
		T2:      &Canonical{Impacts: []float64{3, 4}},
		Matches: []linkage.Match{{L: 0, R: 0, P: 0.9}, {L: 1, R: 1, P: 0.8}},
	}
	// Nodes are left tuples then right tuples: {0, 2} assigns left 0 and
	// right 0; left 1 (node 1) and right 1 (node 3) stay unassigned.
	subs := buildSubProblems(inst, [][]int{{0, 2}})
	if len(subs) != 1 {
		t.Fatalf("sub-problems = %d, want 1", len(subs))
	}
	if len(subs[0].left) != 1 || subs[0].left[0] != 0 || len(subs[0].right) != 1 || subs[0].right[0] != 0 {
		t.Fatalf("sub-problem tuples = left %v right %v, want [0] and [0]", subs[0].left, subs[0].right)
	}
	if len(subs[0].matches) != 1 || subs[0].matches[0].L != 0 || subs[0].matches[0].R != 0 {
		t.Fatalf("matches = %+v: the (1,1) match has unassigned endpoints and must be dropped", subs[0].matches)
	}
	// A match with only one assigned endpoint must be dropped too.
	inst.Matches = []linkage.Match{{L: 0, R: 1, P: 0.9}}
	subs = buildSubProblems(inst, [][]int{{0, 2}})
	if len(subs[0].matches) != 0 {
		t.Fatalf("matches = %+v: half-assigned match must be dropped", subs[0].matches)
	}
}

// imdbInput is IMDb template tpl over 600 movies of one year (seed 3): 73
// canonical tuples a side for Q1 and Q3.
func imdbInput(t *testing.T, tpl int) Input {
	t.Helper()
	im, err := datagen.GenerateIMDb(datagen.IMDbSpec{Movies: 600, Persons: 100, StartYear: 2000, EndYear: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q1, q2, mattr, err := datagen.Templates()[tpl].Instantiate("2000")
	if err != nil {
		t.Fatal(err)
	}
	popt := linkage.DefaultPairOptions()
	return Input{DB1: im.DB1, DB2: im.DB2, Q1: q1, Q2: q2, Mattr: mattr, PairOpts: &popt, Workers: 1}
}

// TestEncodeModelReuse encodes every sub-problem of a partitioned IMDb
// instance into one model that the previous sub-problem used, and checks
// the solve against a fresh model's: same dimensions, solution, objective
// and search. SolveInstance, whose workers each keep one model, must give
// identical explanations and stats at one and three workers.
func TestEncodeModelReuse(t *testing.T) {
	inst, _, err := BuildInstance(imdbInput(t, 2)) // Q3 count comedies
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.BatchSize = 16
	subs, err := splitInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) < 3 {
		t.Fatalf("%d sub-problems, want several", len(subs))
	}
	reused := newWorker(inst, p)
	grew, shrank := false, false
	for si, sub := range subs {
		before := reused.m.NumVars()
		fresh := newWorker(inst, p)
		gb, wb := encodeAll(reused, sub), encodeAll(fresh, sub)
		got, want := reused.m, fresh.m
		if si > 0 {
			grew = grew || got.NumVars() > before
			shrank = shrank || got.NumVars() < before
		}
		if got.NumVars() != want.NumVars() || got.NumRows() != want.NumRows() {
			t.Fatalf("sub %d: reused model %s, fresh %s", si, got, want)
		}
		gs, err := milp.Solve(got, milp.Options{WarmStart: reused.warmStart(gb)})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := milp.Solve(want, milp.Options{WarmStart: fresh.warmStart(wb)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("sub %d: reused model solves to %+v, fresh %+v", si, gs, ws)
		}
	}
	if !grew || !shrank {
		t.Fatalf("sub-problem sizes never grew (%v) or never shrank (%v) from one to the next", grew, shrank)
	}
	var first *Explanations
	var firstStats Stats
	for _, workers := range []int{1, 3} {
		p.Workers = workers
		expl, st, err := SolveInstance(inst, p)
		if err != nil {
			t.Fatal(err)
		}
		st.SolveTime = 0
		if first == nil {
			first, firstStats = expl, *st
			continue
		}
		if !reflect.DeepEqual(expl, first) || *st != firstStats {
			t.Fatalf("Workers=%d: %+v / %+v, Workers=1: %+v / %+v", workers, expl, *st, first, firstStats)
		}
	}
}

// TestSolveInstanceNodeCappedBudget pins the budget on a slow solve:
// IMDb Q1 with a calibrator that keeps 314 matches encodes, at BatchSize
// 200, into one 1066-variable block the sparse engine searches at about
// 2 ms a node, so reaching maxNodes would take minutes. A 300 ms budget
// must end it promptly with the incumbent, TimedOut set and no error.
func TestSolveInstanceNodeCappedBudget(t *testing.T) {
	in := imdbInput(t, 0) // Q1 actors in short movies
	raw, err := BuildStage1(in)
	if err != nil {
		t.Fatal(err)
	}
	sims := make([]float64, len(raw.RawMatches))
	truth := make([]bool, len(raw.RawMatches))
	for i, m := range raw.RawMatches {
		sims[i] = m.Sim
		truth[i] = m.Sim >= 0.44 && i%2 == 0
	}
	cal := linkage.NewCalibrator(50)
	if err := cal.Fit(sims, truth); err != nil {
		t.Fatal(err)
	}
	in.Calibrator = cal
	inst, _, err := BuildInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Matches) != 314 {
		t.Fatalf("%d matches kept, want 314", len(inst.Matches))
	}
	p := DefaultParams()
	p.BatchSize = 200
	p.Workers = 1
	p.SolverTimeLimit = 300 * time.Millisecond
	start := time.Now()
	expl, st, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("a 300ms budget took %v", took)
	}
	if !st.TimedOut || st.SparseBlocks == 0 {
		t.Fatalf("stats %+v: want TimedOut on a sparse block", *st)
	}
	if err := CheckComplete(inst, expl); err != nil {
		t.Fatalf("budget-limited explanations incomplete: %v", err)
	}

	// A capped component is never stored: solving every sub-problem twice
	// through one component memo, the second pass searches the capped
	// component again and times out again, where a stored incumbent would
	// replay as optimal.
	subs, err := splitInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	memo, w := &compMemo{}, newWorker(inst, p)
	for pass := 0; pass < 2; pass++ {
		ctx, cancel := context.WithTimeout(context.Background(), p.SolverTimeLimit)
		limited := 0
		for _, sub := range subs {
			var st Stats
			w.place(sub)
			if _, _, err := w.solve(ctx, memo, &st); err != nil {
				t.Fatal(err)
			}
			if st.TimedOut {
				limited++
			}
		}
		cancel()
		if limited == 0 {
			t.Fatalf("pass %d: no sub-problem timed out", pass)
		}
	}
}
