package serve

import (
	"fmt"
	"strings"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/linkage"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// canonicalQuery parses SQL and re-renders it from the AST, so textual
// variants of the same query — whitespace, keyword case, redundant
// parentheses — share one canonical form and therefore one cache key.
func canonicalQuery(sql string) (string, *sqlparse.Select, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return "", nil, err
	}
	return q.String(), q, nil
}

// canonicalMatches parses an attribute-match spec and re-renders each match
// in the canonical "attrs OP attrs" syntax, one per line.
func canonicalMatches(text string) (string, schemamap.Matching, error) {
	m, err := schemamap.ParseAll(text)
	if err != nil {
		return "", nil, err
	}
	return matchingText(m), m, nil
}

// matchingText renders a matching in canonical parseable syntax.
func matchingText(m schemamap.Matching) string {
	parts := make([]string, len(m))
	for i, am := range m {
		parts[i] = am.String()
	}
	return strings.Join(parts, "\n")
}

// pairOptions resolves a request's Stage-1 fields to the linkage options
// the solve runs with, giving every spelling of one behaviour one value:
// MinSharedTokens below 1 means 1, and MinSim ≤ 0 means the library
// default. The cache keys and the solve both read the result, so
// equivalent requests share one result-cache entry and one Stage-1 index.
func pairOptions(rq *Request) linkage.PairOptions {
	popt := linkage.DefaultPairOptions()
	if rq.MinSharedTokens > 1 {
		popt.MinSharedTokens = rq.MinSharedTokens
	}
	if rq.MinSim > 0 {
		popt.MinSim = rq.MinSim
	}
	return popt
}

// solveParams resolves a request's solver fields the way pairOptions
// resolves its Stage-1 ones: explain3d.CoreParams applies the library's
// conventions (zero priors mean 0.9, TimeoutMS 0 means 60 s, a negative
// one disables the budget), and MinProb 0 means the 0.02 default that
// core.(*Stage1).Instance applies. The cache key and the solve both read
// the result.
func solveParams(rq *Request) (params core.Params, minProb float64) {
	params = explain3d.CoreParams(&explain3d.Options{
		Alpha: rq.Alpha, Beta: rq.Beta, BatchSize: rq.BatchSize,
		SolverTimeout: time.Duration(rq.TimeoutMS) * time.Millisecond,
		NoSummary:     rq.NoSummary, Workers: rq.Workers,
	})
	minProb = rq.MinProb
	if minProb == 0 {
		minProb = 0.02
	}
	return params, minProb
}

// cacheKey renders the canonicalized request tuple. Every field that can
// change the response participates: the dataset pair, both canonical
// queries, the canonical matches, and all solver/mapping parameters as
// pairOptions and solveParams resolve them. Workers is included because
// budget-limited solves return timing-dependent incumbents that vary with
// parallelism.
func cacheKey(dataset, q1c, q2c, mc string, rq *Request) string {
	popt := pairOptions(rq)
	params, minProb := solveParams(rq)
	return fmt.Sprintf("ds=%s\x1fq1=%s\x1fq2=%s\x1fm=%s\x1fa=%g\x1fb=%g\x1fbatch=%d\x1fto=%d\x1fw=%d\x1fmst=%d\x1fms=%g\x1fminp=%g\x1fsum=%t",
		dataset, q1c, q2c, mc,
		params.Alpha, params.Beta, params.BatchSize, params.SolverTimeLimit, params.Workers,
		popt.MinSharedTokens, popt.MinSim, minProb, rq.NoSummary)
}
