package core

import (
	"math/rand"
	"testing"

	"explain3d/internal/linkage"
)

// ambiguousInstance has one left tuple with two equally probable partners
// whose impacts differ: the prior on the right tuples decides which match
// the optimum selects.
func ambiguousInstance() *Instance {
	t1 := &Canonical{Impacts: []float64{2}, Keys: []string{"x"}}
	t2 := &Canonical{Impacts: []float64{2, 1}, Keys: []string{"r0", "r1"}}
	return &Instance{
		T1: t1, T2: t2,
		Matches: []linkage.Match{
			{L: 0, R: 0, P: 0.6},
			{L: 0, R: 1, P: 0.6},
		},
		Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: true},
	}
}

// TestPerTuplePriors exercises footnote 5: raising the coverage prior α of
// one right tuple makes deleting it more expensive, steering the optimum
// toward matching it.
func TestPerTuplePriors(t *testing.T) {
	inst := ambiguousInstance()

	// With uniform priors the impact-equal partner r0 wins (no value
	// explanation needed).
	expl, _, err := SolveInstance(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Evidence) != 1 || expl.Evidence[0].R != 0 {
		t.Fatalf("uniform priors: evidence = %v, want x↔r0", expl.Evidence)
	}

	// Trusting r1's coverage very strongly (α → 1: it MUST correspond to
	// something) flips the choice: deleting r1 becomes prohibitive, so the
	// optimum pairs x with r1 and pays a value correction instead.
	p := DefaultParams()
	p.Alpha = 0.75
	p.AlphaOf = func(side Side, tuple int) float64 {
		if side == Right && tuple == 1 {
			return 1 - 1e-9
		}
		return 0 // fall back to the global prior
	}
	expl, _, err = SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Evidence) != 1 || expl.Evidence[0].R != 1 {
		t.Fatalf("boosted prior: evidence = %v, want x↔r1", expl.Evidence)
	}
	if err := CheckComplete(inst, expl); err != nil {
		t.Fatal(err)
	}
}

// TestPerTuplePriorsOutOfRangeIgnored verifies invalid overrides fall back
// to the global priors.
func TestPerTuplePriorsOutOfRangeIgnored(t *testing.T) {
	p := DefaultParams()
	p.AlphaOf = func(Side, int) float64 { return 0.2 } // invalid: ≤ 0.5
	p.BetaOf = func(Side, int) float64 { return 2 }    // invalid: > 1
	a1, b1, c1 := p.tupleConsts(Left, 0)
	a2, b2, c2 := logConsts(p)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("invalid overrides must not change constants: (%v,%v,%v) vs (%v,%v,%v)", a1, b1, c1, a2, b2, c2)
	}
}

// Property: the greedy warm start constructed for every sub-problem is
// always feasible for its MILP — the guarantee that lets solver budgets
// degrade gracefully.
func TestWarmStartAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		nl := 2 + rng.Intn(8)
		nr := 2 + rng.Intn(8)
		t1 := &Canonical{}
		for i := 0; i < nl; i++ {
			t1.Impacts = append(t1.Impacts, float64(rng.Intn(6)))
			t1.Keys = append(t1.Keys, "l")
		}
		t2 := &Canonical{}
		for j := 0; j < nr; j++ {
			t2.Impacts = append(t2.Impacts, float64(rng.Intn(6)))
			t2.Keys = append(t2.Keys, "r")
		}
		var matches []linkage.Match
		for i := 0; i < nl; i++ {
			for j := 0; j < nr; j++ {
				if rng.Float64() < 0.5 {
					matches = append(matches, linkage.Match{L: i, R: j, P: 0.05 + 0.94*rng.Float64()})
				}
			}
		}
		card := Cardinality{LeftAtMostOne: true, RightAtMostOne: rng.Intn(2) == 0}
		if rng.Intn(3) == 0 {
			card = Cardinality{LeftAtMostOne: false, RightAtMostOne: true}
		}
		inst := &Instance{T1: t1, T2: t2, Matches: matches, Card: card}
		sub := &subProblem{matches: matches}
		for i := 0; i < nl; i++ {
			sub.left = append(sub.left, i)
		}
		for j := 0; j < nr; j++ {
			sub.right = append(sub.right, j)
		}
		w := newWorker(inst, DefaultParams())
		warm := w.warmStart(encodeAll(w, sub))
		if err := w.m.CheckFeasible(warm, 1e-6); err != nil {
			t.Fatalf("trial %d (card %+v): warm start infeasible: %v", trial, card, err)
		}
	}
}

// Property: canonicalization never changes the total impact for grouping
// aggregates, on random provenance-shaped data.
func TestCanonicalizePreservesTotalImpactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstanceForImpact(rng)
		if inst == nil {
			continue
		}
		// Instances are built directly; the invariant under test is that
		// the MILP's refined relations preserve completeness, so reuse
		// CheckComplete on the solved result.
		expl, _, err := SolveInstance(inst, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckComplete(inst, expl); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func randomInstanceForImpact(rng *rand.Rand) *Instance {
	nl := 2 + rng.Intn(5)
	nr := 2 + rng.Intn(5)
	t1 := &Canonical{}
	for i := 0; i < nl; i++ {
		t1.Impacts = append(t1.Impacts, float64(1+rng.Intn(5)))
		t1.Keys = append(t1.Keys, "l")
	}
	t2 := &Canonical{}
	for j := 0; j < nr; j++ {
		t2.Impacts = append(t2.Impacts, float64(1+rng.Intn(5)))
		t2.Keys = append(t2.Keys, "r")
	}
	var matches []linkage.Match
	for i := 0; i < nl; i++ {
		matches = append(matches, linkage.Match{L: i, R: rng.Intn(nr), P: 0.3 + 0.69*rng.Float64()})
	}
	return &Instance{T1: t1, T2: t2, Matches: matches,
		Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: false}}
}

// TestSolverBudgetReturnsWarmStartQuality injects an immediate deadline
// and verifies the result is still a complete explanation set (the warm
// start), not the delete-everything fallback.
func TestSolverBudgetReturnsWarmStartQuality(t *testing.T) {
	inst := fig1Instance(t)
	p := DefaultParams()
	p.SolverTimeLimit = 1 // nanosecond: expires immediately
	expl, stats, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TimedOut {
		t.Skip("solver finished before the deadline was observed")
	}
	if err := CheckComplete(inst, expl); err != nil {
		t.Fatalf("budget-expired result incomplete: %v", err)
	}
	if len(expl.Evidence) == 0 {
		t.Fatal("budget-expired result lost the warm-start evidence")
	}
}

// Sanity: the MILP with per-tuple priors still matches brute force when
// the overrides are uniform (regression guard for the refactor).
func TestUniformPerTuplePriorsMatchGlobal(t *testing.T) {
	inst := ambiguousInstance()
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.AlphaOf = func(Side, int) float64 { return p1.Alpha }
	p2.BetaOf = func(Side, int) float64 { return p1.Beta }
	e1, _, err := SolveInstance(inst, p1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := SolveInstance(inst, p2)
	if err != nil {
		t.Fatal(err)
	}
	if Score(inst, e1, p1) != Score(inst, e2, p1) {
		t.Fatalf("uniform overrides changed the optimum: %v vs %v", e1, e2)
	}
}
