// Package milp is a self-contained mixed-integer linear programming solver:
// a bounded-variable two-phase primal simplex for linear relaxations and a
// branch-and-bound search for integrality. It stands in for the commercial
// solver (CPLEX) used by the paper. The solver performs block decomposition
// as a presolve step — independent sub-problems (connected components of
// the variable/constraint graph) are detected and solved separately — which
// mirrors what modern solvers do and keeps memory proportional to the
// largest block rather than the whole model.
package milp

import (
	"fmt"
	"math"
	"time"
)

// Sense is the optimization direction.
type Sense int

const (
	// Minimize the objective.
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// VarType classifies a decision variable.
type VarType int

const (
	// Continuous variables take any value within bounds.
	Continuous VarType = iota
	// Integer variables must take integral values within bounds.
	Integer
	// Binary variables are integers restricted to {0, 1}.
	Binary
)

// ConstrSense is a constraint's relational operator.
type ConstrSense int

const (
	// LE is ≤.
	LE ConstrSense = iota
	// GE is ≥.
	GE
	// EQ is =.
	EQ
)

// Var identifies a variable within its model.
type Var int

// Term is one coefficient·variable entry of a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Inf is the bound used for "unbounded above".
var Inf = math.Inf(1)

type varData struct {
	name string
	lb   float64
	ub   float64
	vt   VarType
	obj  float64
	pri  int
}

type rowData struct {
	name  string
	terms []Term
	sense ConstrSense
	rhs   float64
}

// Model is a MILP under construction.
type Model struct {
	Name     string
	sense    Sense
	vars     []varData
	rows     []rowData
	arena    []Term // every row's merged terms, back to back
	objConst float64
}

// NewModel creates an empty model with the given optimization sense.
func NewModel(name string, sense Sense) *Model {
	return &Model{Name: name, sense: sense}
}

// Reset empties the model for reuse, keeping its name, its sense and the
// storage of its variables, rows and terms, which the next additions
// overwrite: nothing may still read the earlier contents.
func (m *Model) Reset() {
	m.vars, m.rows, m.arena = m.vars[:0], m.rows[:0], m.arena[:0]
	m.objConst = 0
}

// AddVar declares a variable. Binary variables may pass any bounds; they
// are clamped to [0,1]. The lower bound must be finite (the encodings this
// solver serves always have one).
func (m *Model) AddVar(lb, ub float64, vt VarType, name string) Var {
	if vt == Binary {
		if lb < 0 {
			lb = 0
		}
		if ub > 1 {
			ub = 1
		}
	}
	m.vars = append(m.vars, varData{name: name, lb: lb, ub: ub, vt: vt})
	return Var(len(m.vars) - 1)
}

// NumVars returns the number of declared variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumRows returns the number of constraints.
func (m *Model) NumRows() int { return len(m.rows) }

// SetObjCoef adds c to the objective coefficient of v.
func (m *Model) SetObjCoef(v Var, c float64) { m.vars[v].obj += c }

// SetBranchPriority marks v as preferred for branching; among fractional
// integer variables, branch-and-bound picks the highest priority first
// (default 0), then the most fractional.
func (m *Model) SetBranchPriority(v Var, pri int) { m.vars[v].pri = pri }

// AddObjConst adds a constant to the objective.
func (m *Model) AddObjConst(c float64) { m.objConst += c }

// AddConstr appends a linear constraint Σ terms (sense) rhs. Terms on the
// same variable are merged. The merged terms are copied to the end of the
// model's term arena and the row keeps a subslice capped at its own length,
// so no later append can write into it; terms itself is not retained and
// may be reused for the next row.
func (m *Model) AddConstr(terms []Term, sense ConstrSense, rhs float64, name string) {
	start := len(m.arena)
	m.arena = mergeTerms(m.arena, terms)
	end := len(m.arena)
	m.rows = append(m.rows, rowData{name: name, terms: m.arena[start:end:end], sense: sense, rhs: rhs})
}

// mergeScanMax is the longest row mergeTerms merges by linear scan; most
// encoder rows (IndicatorEq, ProductBinaryCont, z_x) have 2-4 terms. Longer
// rows (cardinality, cover and impact-equality rows of high-degree tuples)
// use a map so they stay linear.
const mergeScanMax = 16

// mergeTerms sums terms on the same variable left to right, keeps each
// variable at its first appearance and drops sums that are exactly 0. A
// single term is kept as is, even with a zero coefficient. The merged
// terms are appended to dst, which must not overlap terms.
//
//lint:floatexact coefficients that cancel to exact 0.0 drop the term; keeping near-zero terms is deliberate
func mergeTerms(dst, terms []Term) []Term {
	if len(terms) <= 1 {
		return append(dst, terms...)
	}
	base := len(dst)
	if len(terms) <= mergeScanMax {
	next:
		for _, t := range terms {
			for i := base; i < len(dst); i++ {
				if dst[i].Var == t.Var {
					dst[i].Coef += t.Coef
					continue next
				}
			}
			dst = append(dst, t)
		}
	} else {
		at := make(map[Var]int, len(terms))
		for _, t := range terms {
			if i, seen := at[t.Var]; seen {
				dst[i].Coef += t.Coef
				continue
			}
			at[t.Var] = len(dst)
			dst = append(dst, t)
		}
	}
	kept := dst[:base]
	for _, t := range dst[base:] {
		if t.Coef != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means a provably optimal solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means no assignment satisfies the constraints.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded.
	StatusUnbounded
	// StatusLimit means a node or time budget expired; the solution is the
	// best incumbent found (feasible but possibly sub-optimal).
	StatusLimit
	// StatusNoSolution means a budget expired before any feasible point was
	// found.
	StatusNoSolution
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusLimit:
		return "limit"
	case StatusNoSolution:
		return "no-solution"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// engineMode selects the LP engine branch-and-bound uses for node
// relaxations.
type engineMode int

const (
	// engineAdaptive (the default) picks dense vs sparse per block from the
	// block's shape: tableau cells, nonzero density, and the expected tree
	// size (chooseDense).
	engineAdaptive engineMode = iota
	// engineSparse forces the sparse revised simplex for every block.
	engineSparse
	// engineDense forces the dense tableau for every block. The dense
	// engine refuses relaxations above maxTableauCells.
	engineDense
)

// Options tunes the solver.
type Options struct {
	// TimeLimit bounds wall-clock time (0 = unlimited). SolveContext
	// callers may instead (or additionally) put a deadline on the context;
	// the earlier bound wins.
	TimeLimit time.Duration
	// WarmStart optionally provides a feasible assignment used as the
	// initial incumbent (length must equal NumVars).
	WarmStart []float64

	// The fields below are differential and measurement hooks, set only by
	// this package's tests and benchmarks (like disableDevex). Every setting
	// returns the default's statuses and objectives, except that the forced
	// dense engine refuses blocks above its size cap.

	// engine forces one LP engine for every block instead of the
	// per-block adaptive choice.
	engine engineMode
	// cold disables the warm-started dual simplex: every branch-and-bound
	// node rebuilds its basis and solves phase 1/phase 2 from scratch.
	cold bool
	// noPresolve disables the per-node presolve (bound tightening at cold
	// solves, reduced-cost fixing of nonbasic integer variables).
	noPresolve bool
	// disableBlocks turns off block decomposition (solve as one problem).
	disableBlocks bool
}

const (
	// maxNodes bounds branch-and-bound nodes per block; a block that hits it
	// returns its incumbent with StatusLimit.
	maxNodes = 200000
	// intTol is the integrality tolerance.
	intTol = 1e-6
)

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	Nodes     int
	Blocks    int
	// Iters is the total number of simplex iterations (primal pivots,
	// bound flips, and dual pivots) across all branch-and-bound nodes —
	// the per-node effort metric the warm-started solver drives down.
	Iters int
	// Refactors counts basis LU factorizations performed by the sparse
	// revised simplex (crash factorizations plus eta-file-length and
	// stability-triggered rebuilds). Zero for blocks the dense tableau
	// solved.
	Refactors int
	// LUFill totals the L+U nonzeros produced by those factorizations —
	// the solver's fill-in metric.
	LUFill int
	// CertInfeas counts warm dual-infeasible verdicts accepted via a
	// direct Farkas certificate check instead of a cold phase-1 re-proof.
	CertInfeas int
	// SparseBlocks/DenseBlocks count the blocks solved by each LP engine —
	// the per-block choices the shape heuristic made.
	SparseBlocks int
	DenseBlocks  int
	// DenseBlock[k] reports whether the dense tableau solved block k, the
	// blocks numbered in order of their smallest variable (set whenever
	// every block was solved).
	DenseBlock []bool
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// BoolValue rounds a binary variable's value.
func (s *Solution) BoolValue(v Var) bool { return s.X[v] > 0.5 }

// label names variable or row i in an error: its index, and its name if any.
func label(kind, name string, i int) string {
	if name == "" {
		return fmt.Sprintf("%s %d", kind, i)
	}
	return fmt.Sprintf("%s %s (%d)", kind, name, i)
}

// validate checks model invariants before solving.
func (m *Model) validate() error {
	for i, v := range m.vars {
		if math.IsInf(v.lb, -1) || math.IsNaN(v.lb) {
			return fmt.Errorf("milp: %s must have a finite lower bound", label("variable", v.name, i))
		}
		if v.ub < v.lb {
			return fmt.Errorf("milp: %s has empty domain [%g,%g]", label("variable", v.name, i), v.lb, v.ub)
		}
	}
	for ri, r := range m.rows {
		for _, t := range r.terms {
			if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
				return fmt.Errorf("milp: %s references unknown variable %d", label("constraint", r.name, ri), t.Var)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("milp: %s has non-finite coefficient on variable %d", label("constraint", r.name, ri), t.Var)
			}
		}
		if math.IsNaN(r.rhs) || math.IsInf(r.rhs, 0) {
			return fmt.Errorf("milp: %s has non-finite right-hand side", label("constraint", r.name, ri))
		}
	}
	return nil
}

// CheckFeasible verifies an assignment against bounds, integrality, and
// constraints within tol; it returns a descriptive error for the first
// violation. Used by tests and to vet warm starts.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(m.vars) {
		return fmt.Errorf("milp: assignment length %d != %d variables", len(x), len(m.vars))
	}
	for i, v := range m.vars {
		if x[i] < v.lb-tol || x[i] > v.ub+tol {
			return fmt.Errorf("milp: %s = %g outside [%g,%g]", label("variable", v.name, i), x[i], v.lb, v.ub)
		}
		if v.vt != Continuous {
			if math.Abs(x[i]-math.Round(x[i])) > tol {
				return fmt.Errorf("milp: %s = %g is not integral", label("variable", v.name, i), x[i])
			}
		}
	}
	for ri, r := range m.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch r.sense {
		case LE:
			if lhs > r.rhs+tol {
				return fmt.Errorf("milp: %s violated: %g > %g", label("constraint", r.name, ri), lhs, r.rhs)
			}
		case GE:
			if lhs < r.rhs-tol {
				return fmt.Errorf("milp: %s violated: %g < %g", label("constraint", r.name, ri), lhs, r.rhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol {
				return fmt.Errorf("milp: %s violated: %g != %g", label("constraint", r.name, ri), lhs, r.rhs)
			}
		}
	}
	return nil
}

// objectiveOf evaluates the objective (including constant) at x.
func (m *Model) objectiveOf(x []float64) float64 {
	obj := m.objConst
	for i, v := range m.vars {
		obj += v.obj * x[i]
	}
	return obj
}
