// Package core implements the paper's contribution: the EXP-3D optimal
// explanation problem (Problem 1) and the 3-stage explain3d framework —
// canonicalization of provenance relations (Stage 1), translation of the
// optimization problem to a MILP solved to optimality (Stage 2, Algorithm
// 1) with the smart-partitioning optimizer (Section 4), and explanation
// summarization (Stage 3). The evaluation baselines (GREEDY, THRESHOLD,
// RSWOOSH, EXACTCOVER, FORMALEXP) live here too so they share the same
// instance representation.
package core

import (
	"fmt"
	"math"
	"time"

	"explain3d/internal/linkage"
	"explain3d/internal/schemamap"
)

// Side distinguishes the two queries' canonical relations.
type Side int

const (
	// Left is Q1's side.
	Left Side = iota
	// Right is Q2's side.
	Right
)

// String names the side.
func (s Side) String() string {
	if s == Left {
		return "L"
	}
	return "R"
}

// ProvExpl is a provenance-based explanation: canonical tuple Tuple on
// Side does not correspond to any tuple on the other side (t ∈ Δ).
type ProvExpl struct {
	Side  Side
	Tuple int
}

// Key is a stable identifier for metrics.
func (e ProvExpl) Key() string { return fmt.Sprintf("Δ|%s|%d", e.Side, e.Tuple) }

// ValExpl is a value-based explanation: the tuple's impact should be
// NewImpact instead of its recorded impact (t.I ↦ t.I*).
type ValExpl struct {
	Side      Side
	Tuple     int
	NewImpact float64
}

// Key is a stable identifier for metrics; the corrected value is not part
// of the identity (the paper scores which tuples are flagged).
func (e ValExpl) Key() string { return fmt.Sprintf("δ|%s|%d", e.Side, e.Tuple) }

// Evidence is one refined tuple match in M*_tuple.
type Evidence struct {
	L, R int
	P    float64
}

// Key is a stable identifier for metrics.
func (e Evidence) Key() string { return fmt.Sprintf("%d→%d", e.L, e.R) }

// Explanations is the framework's output E = (Δ, δ | M*_tuple).
type Explanations struct {
	Prov     []ProvExpl
	Val      []ValExpl
	Evidence []Evidence
}

// Size returns |E| = |Δ| + |δ|.
func (e *Explanations) Size() int { return len(e.Prov) + len(e.Val) }

// EvidenceKeys returns the evidence identity set.
func (e *Explanations) EvidenceKeys() []string {
	out := make([]string, 0, len(e.Evidence))
	for _, m := range e.Evidence {
		out = append(out, m.Key())
	}
	return out
}

// Params are the framework's tunables.
type Params struct {
	// Alpha is the prior that a tuple is covered by both queries; Beta the
	// prior that its impact is correct. Both must lie in (0.5, 1].
	Alpha, Beta float64
	// AlphaOf and BetaOf optionally override the priors per tuple
	// (footnote 5 of the paper: "our framework can handle different
	// values across tuples") — e.g. trusting one source's coverage more
	// than the other's. Returned values outside (0.5, 1] fall back to the
	// global prior.
	AlphaOf, BetaOf func(side Side, tuple int) float64
	// BatchSize enables smart partitioning: connected components larger
	// than BatchSize are split with Algorithm 3 into parts of at most
	// BatchSize tuples. 0 disables partitioning (the paper's NOOPT).
	BatchSize int
	// SolverTimeLimit bounds the whole Stage-2 solve (0 = unlimited): all
	// sub-problems share one deadline and in-flight solves cancel
	// cooperatively when it expires.
	SolverTimeLimit time.Duration
	// Workers is the number of sub-problems solved concurrently by
	// SolveInstance. 0 defaults to runtime.GOMAXPROCS(0); 1 reproduces the
	// sequential pipeline. Explanations are identical at any worker count
	// (fragments are merged in partition order before the canonical sort);
	// the exception is solves that exhaust SolverTimeLimit, whose
	// incumbents are timing-dependent with or without parallelism.
	Workers int
}

// DefaultParams returns the parameters used throughout the evaluation:
// α = β = 0.9 (the partitioner always uses the paper's θl = 0.1, θh = 0.9,
// R = 100, which package graph fixes as constants).
func DefaultParams() Params {
	return Params{Alpha: 0.9, Beta: 0.9}
}

func (p Params) withDefaults() Params {
	if p.Alpha == 0 {
		p.Alpha = 0.9
	}
	if p.Beta == 0 {
		p.Beta = 0.9
	}
	return p
}

func (p Params) validate() error {
	if p.Alpha <= 0.5 || p.Alpha > 1 {
		return fmt.Errorf("core: Alpha must be in (0.5, 1], got %v", p.Alpha)
	}
	if p.Beta <= 0.5 || p.Beta > 1 {
		return fmt.Errorf("core: Beta must be in (0.5, 1], got %v", p.Beta)
	}
	if p.BatchSize < 0 {
		return fmt.Errorf("core: BatchSize must be ≥ 0, got %d", p.BatchSize)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: Workers must be ≥ 0, got %d", p.Workers)
	}
	return nil
}

// probEps clamps match probabilities and priors away from {0, 1} so the
// logarithms in the objective stay finite.
const probEps = 1e-6

func clampProb(p float64) float64 {
	return math.Max(probEps, math.Min(1-probEps, p))
}

// Cardinality is the tuple-mapping cardinality implied by the attribute
// matches (Definition 3.2).
type Cardinality struct {
	LeftAtMostOne  bool
	RightAtMostOne bool
}

// CardinalityOf derives the cardinality from a matching.
func CardinalityOf(m schemamap.Matching) Cardinality {
	l, r := m.Cardinality()
	return Cardinality{LeftAtMostOne: l, RightAtMostOne: r}
}

// Instance is a self-contained EXP-3D problem over canonical relations: the
// input to Stage 2 and to every baseline.
type Instance struct {
	T1, T2  *Canonical
	Matches []linkage.Match
	Card    Cardinality
}

// Stats records solver effort for the efficiency experiments.
type Stats struct {
	// SolveTime is the Stage-2 optimization time (partitioning + MILP).
	SolveTime time.Duration
	// Partitions is the number of sub-problems solved.
	Partitions int
	// MILPVars and MILPRows total over all sub-problems.
	MILPVars, MILPRows int
	// Nodes totals branch-and-bound nodes of the searched blocks: a call
	// searches each distinct component (one MILP block) once and replays
	// its repeats (MemoHits), so within budget Nodes and Iters repeat at
	// any Workers.
	Nodes int
	// Iters totals simplex iterations across the searched blocks' nodes;
	// Iters/Nodes is the per-node solver effort the warm-started dual
	// simplex drives down.
	Iters int
	// Refactors totals basis LU factorizations performed by the sparse
	// revised simplex across all sub-problems.
	Refactors int
	// LUFill totals the L+U nonzeros those factorizations produced — the
	// solver's fill-in metric.
	LUFill int
	// CertInfeas totals dual-infeasible nodes accepted via a Farkas
	// certificate check instead of a cold phase-1 re-proof.
	CertInfeas int
	// SparseBlocks/DenseBlocks total the per-block LP engine choices the
	// solver's adaptive heuristic made across all sub-problems. On a
	// sub-problem that found no feasible point within the budget (and so
	// deletes everything), they, Nodes and Iters cover only the blocks
	// searched before the search gave up; MILPVars and MILPRows still
	// cover the whole sub-problem.
	SparseBlocks, DenseBlocks int
	// MemoHits counts components (one MILP block each) replayed from the
	// call's component memo without being encoded or searched, or from
	// the solution cache for a sub-problem equal to one the call solved.
	// A replay adds its component's MILPVars, MILPRows and engine count,
	// but no nodes or iterations.
	MemoHits int
	// SolveCacheHits/SolveCacheMisses count sub-problems served from (or
	// missed in) the solution cache a SolveInstanceCached call consulted;
	// both stay zero without a cache. Misses on an incrementally advanced
	// instance are exactly its dirty partitions.
	SolveCacheHits, SolveCacheMisses int
	// TimedOut reports that at least one sub-problem hit a solver budget
	// and returned its incumbent instead of a proven optimum.
	TimedOut bool
}
