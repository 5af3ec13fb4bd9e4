// Package explain3d explains disagreements between the results of two
// semantically similar SQL queries over two disjoint datasets, implementing
// Wang & Meliou, "Explain3D: Explaining Disagreements in Disjoint Datasets"
// (VLDB 2019).
//
// Given two databases, two queries that should return the same answer, and
// attribute matches describing how the schemas correspond, Explain derives:
//
//   - provenance-based explanations — tuples on one side with no
//     counterpart on the other;
//   - value-based explanations — tuples whose impact (contribution to the
//     query result) is wrong;
//   - an evidence mapping — the refined tuple correspondence that supports
//     the explanations, making them interpretable;
//   - pattern summaries of the explanations (Stage 3).
//
// The optimal explanations are found by translating the problem to a mixed
// integer linear program (solved by the built-in solver) after
// canonicalizing the queries' provenance; large problems are decomposed by
// the smart-partitioning optimizer. The resulting independent sub-problems
// are solved concurrently — Options.Workers sets the parallelism (default
// runtime.GOMAXPROCS(0)) and the output is identical at any worker count
// (unless a solver budget expires: budget-limited incumbents are
// timing-dependent, sequentially or not).
//
// Note the zero-value convention in Options: Alpha or Beta left at 0 means
// "use the paper's default of 0.9" (both priors must lie in (0.5, 1], so 0
// is never a meaningful setting).
//
// Quick start:
//
//	db1 := explain3d.NewDatabase("catalog")
//	majors := db1.AddTable("Major", "Program", "Degree")
//	majors.AddRow("CS", "B.S.")
//	majors.AddRow("CS", "B.A.")
//	// ... fill db2 ...
//	res, err := explain3d.Explain(db1, db2,
//	    "SELECT COUNT(Program) FROM Major",
//	    "SELECT SUM(bach_degr) FROM Stats",
//	    "Major.Program <= Stats.Program", nil)
package explain3d

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"explain3d/internal/core"
	"explain3d/internal/experiments"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// Database is a named collection of in-memory tables.
type Database struct {
	db *relation.Database
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{db: relation.NewDatabase(name)}
}

// Table is one relation under construction.
type Table struct {
	rel *relation.Relation
}

// AddTable registers a new table with the given column names and returns
// it for row insertion.
func (d *Database) AddTable(name string, columns ...string) *Table {
	rel := relation.New(name, columns...)
	d.db.Add(rel)
	return &Table{rel: rel}
}

// LoadCSV registers a table from a CSV file (header row required, values
// type-inferred). The table is named after the file's base name.
func (d *Database) LoadCSV(path string) error {
	rel, err := relation.ReadCSVFile(path)
	if err != nil {
		return err
	}
	d.db.Add(rel)
	return nil
}

// Raw exposes the underlying relational database for in-module tooling —
// cmd/explaind registers it with the serve package, which needs the
// relation-level form to apply deltas and share Stage-1 prefixes.
func (d *Database) Raw() *relation.Database { return d.db }

// AddRow appends a row; values may be string, int, int64, float64, bool,
// or nil for NULL.
func (t *Table) AddRow(values ...any) *Table {
	t.rel.Append(values...)
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.rel.Len() }

// Options tunes the explanation framework. The zero value (or nil) uses
// the paper's defaults.
type Options struct {
	// Alpha is the prior probability that a tuple is covered by both
	// datasets; Beta that its impact is correct. Defaults 0.9 each.
	// Both must lie in (0.5, 1]; a zero value means "use the default",
	// so neither prior can be set to exactly 0 (0 is outside the valid
	// range anyway).
	Alpha, Beta float64
	// BatchSize > 0 enables the smart-partitioning optimizer with the
	// given maximum sub-problem size (Section 4 of the paper). 0 solves
	// the problem whole.
	BatchSize int
	// SolverTimeout bounds the optimization stage; on expiry the best
	// explanations found so far are returned and Result.TimedOut is set.
	// Default 60s; negative disables the budget entirely.
	SolverTimeout time.Duration
	// NoSummary skips Stage 3 (pattern summaries); default false, so
	// results carry summaries unless it is set.
	NoSummary bool
	// Workers is the number of goroutines used for the parallel stages:
	// candidate scoring in Stage 1 and per-partition MILP solving in
	// Stage 2. 0 uses runtime.GOMAXPROCS(0); 1 runs fully sequentially.
	// Results are identical at any worker count, except that solves which
	// exhaust SolverTimeout return timing-dependent incumbents (true with
	// or without parallelism).
	Workers int
}

// ExplanationKind distinguishes the two explanation types.
type ExplanationKind string

const (
	// MissingTuple is a provenance-based explanation (t ∈ Δ).
	MissingTuple ExplanationKind = "missing-tuple"
	// WrongValue is a value-based explanation (t.I ↦ t.I*).
	WrongValue ExplanationKind = "wrong-value"
)

// Explanation is one explanation in human-readable terms.
type Explanation struct {
	Kind ExplanationKind
	// Query is 1 or 2: which query's provenance the tuple belongs to.
	Query int
	// Tuple renders the canonical tuple (its matching-attribute values).
	Tuple string
	// Impact is the tuple's contribution; NewImpact the corrected value
	// for WrongValue explanations.
	Impact, NewImpact float64
}

// String renders the explanation.
func (e Explanation) String() string {
	if e.Kind == MissingTuple {
		return fmt.Sprintf("[Q%d] %q (impact %v) has no counterpart", e.Query, e.Tuple, e.Impact)
	}
	return fmt.Sprintf("[Q%d] %q impact should be %v, not %v", e.Query, e.Tuple, e.NewImpact, e.Impact)
}

// MatchedPair is one evidence-mapping entry.
type MatchedPair struct {
	Tuple1, Tuple2 string
	Probability    float64
}

// Result is the full output of Explain.
type Result struct {
	// Result1 and Result2 are the two queries' answers.
	Result1, Result2 string
	// Explanations lists the optimal explanations for the disagreement.
	Explanations []Explanation
	// Evidence is the refined tuple mapping supporting the explanations.
	Evidence []MatchedPair
	// Summary holds Stage-3 pattern summaries (one line each).
	Summary []string
	// TimedOut reports that the solver budget expired and the result is
	// the best incumbent rather than a proven optimum.
	TimedOut bool

	res *core.Result
}

// Explain runs the full three-stage framework: provenance extraction and
// canonicalization, initial tuple mapping, MILP-based optimal explanation
// derivation, and summarization. The matches argument uses the syntax
// "attr OP attr" per line with OP in {==, <=, >=} (≡, ⊑, ⊒).
//
//lint:ctxroot public entry point without a ctx parameter: compatibility wrapper around ExplainContext
func Explain(db1, db2 *Database, sql1, sql2, matches string, opts *Options) (*Result, error) {
	return ExplainContext(context.Background(), db1, db2, sql1, sql2, matches, opts)
}

// ExplainContext is Explain bounded by a caller context: cancelling ctx —
// SIGINT in a CLI, a disconnected client in a server — aborts the
// optimization stage cooperatively and returns the best explanations found
// so far with Result.TimedOut set, rather than an error.
func ExplainContext(ctx context.Context, db1, db2 *Database, sql1, sql2, matches string, opts *Options) (*Result, error) {
	q1, err := sqlparse.Parse(sql1)
	if err != nil {
		return nil, fmt.Errorf("explain3d: query 1: %w", err)
	}
	q2, err := sqlparse.Parse(sql2)
	if err != nil {
		return nil, fmt.Errorf("explain3d: query 2: %w", err)
	}
	mattr, err := schemamap.ParseAll(matches)
	if err != nil {
		return nil, fmt.Errorf("explain3d: attribute matches: %w", err)
	}
	if !mattr.Comparable() {
		return nil, fmt.Errorf("explain3d: queries are not comparable (no attribute matches)")
	}
	res, err := core.ExplainContext(ctx, core.Input{
		DB1: db1.db, DB2: db2.db, Q1: q1, Q2: q2, Mattr: mattr,
	}, CoreParams(opts))
	if err != nil {
		return nil, err
	}
	return ConvertResult(res, opts == nil || !opts.NoSummary), nil
}

// CoreParams resolves Options (nil means defaults) into the core parameter
// set, applying the package-level conventions: zero priors mean the paper's
// 0.9 defaults, SolverTimeout 0 means 60s, negative disables the budget.
// It is the single source of parameter resolution, shared by Explain and
// the serving layer so cached and one-shot runs solve identical problems.
func CoreParams(opts *Options) core.Params {
	params := core.DefaultParams()
	params.SolverTimeLimit = 60 * time.Second
	if opts != nil {
		if opts.Alpha != 0 {
			params.Alpha = opts.Alpha
		}
		if opts.Beta != 0 {
			params.Beta = opts.Beta
		}
		params.BatchSize = opts.BatchSize
		if opts.SolverTimeout > 0 {
			params.SolverTimeLimit = opts.SolverTimeout
		} else if opts.SolverTimeout < 0 {
			params.SolverTimeLimit = 0
		}
		params.Workers = opts.Workers
	}
	return params
}

// ConvertResult renders a finished core result into the public Result
// shape (withSummary controls Stage 3). Library callers get the structs;
// a server that only needs the JSON body calls AppendResultJSON, which
// writes the bytes json.Marshal writes for this Result without building it.
func ConvertResult(res *core.Result, withSummary bool) *Result {
	out := &Result{
		Result1:  res.Prov1.Result.String(),
		Result2:  res.Prov2.Result.String(),
		TimedOut: res.Stats.TimedOut,
		res:      res,
	}
	kw := [2]core.KeyWriter{res.T1.KeyWriter(), res.T2.KeyWriter()}
	impacts := [2][]float64{res.T1.Impacts, res.T2.Impacts}
	for _, pe := range res.Expl.Prov {
		out.Explanations = append(out.Explanations, Explanation{
			Kind: MissingTuple, Query: int(pe.Side) + 1,
			Tuple: kw[pe.Side].Key(pe.Tuple), Impact: impacts[pe.Side][pe.Tuple],
		})
	}
	for _, ve := range res.Expl.Val {
		out.Explanations = append(out.Explanations, Explanation{
			Kind: WrongValue, Query: int(ve.Side) + 1,
			Tuple: kw[ve.Side].Key(ve.Tuple), Impact: impacts[ve.Side][ve.Tuple],
			NewImpact: ve.NewImpact,
		})
	}
	for _, ev := range res.Expl.Evidence {
		out.Evidence = append(out.Evidence, MatchedPair{
			Tuple1: kw[0].Key(ev.L), Tuple2: kw[1].Key(ev.R), Probability: ev.P,
		})
	}
	if withSummary {
		out.Summary = summarizeResult(res)
	}
	return out
}

// summarizeResult runs Stage 3 over both sides' derived explanations. The
// sides read disjoint provenance relations, so they summarize concurrently;
// the output keeps the Q1-then-Q2 order.
func summarizeResult(res *core.Result) []string {
	var bySide [2][]string
	var wg sync.WaitGroup
	for si, side := range []core.Side{core.Left, core.Right} {
		wg.Add(1)
		go func(si int, side core.Side) {
			defer wg.Done()
			for _, p := range experiments.SummarizeSide(res, res.Expl, side) {
				bySide[si] = append(bySide[si],
					fmt.Sprintf("[Q%d] %s (%d tuples, %d false positives)", si+1, p, p.Covered, p.FalsePos))
			}
		}(si, side)
	}
	wg.Wait()
	return append(bySide[0], bySide[1]...)
}

// RunQuery evaluates a single SQL query against a database; aggregate
// queries return their scalar result, others the number of result rows.
// It is a convenience for checking whether two queries disagree at all.
func RunQuery(db *Database, sql string) (string, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	if sel.Aggregate() != nil {
		v, err := query.RunScalar(sel, db.db)
		if err != nil {
			return "", err
		}
		return v.String(), nil
	}
	rel, err := query.Run(sel, db.db)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d rows", rel.Len()), nil
}

// WriteCSV saves a table for interchange with the CLI tools.
func (t *Table) WriteCSV(path string) error {
	return t.rel.WriteCSVFile(path)
}

// MustLoadCSVDir loads every *.csv file in a directory as a table, used by
// the command-line tools; it exits the process on failure.
func (d *Database) MustLoadCSVDir(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "explain3d: %v\n", err)
		os.Exit(1)
	}
	loaded := 0
	for _, e := range entries {
		ext := filepath.Ext(e.Name())
		if e.IsDir() || !strings.EqualFold(ext, ".csv") || e.Name() == ext {
			continue // e.Name() == ext: a bare ".csv" has no table name
		}
		if err := d.LoadCSV(filepath.Join(dir, e.Name())); err != nil {
			fmt.Fprintf(os.Stderr, "explain3d: %v\n", err)
			os.Exit(1)
		}
		loaded++
	}
	if loaded == 0 {
		fmt.Fprintf(os.Stderr, "explain3d: no CSV files in %s\n", dir)
		os.Exit(1)
	}
}
