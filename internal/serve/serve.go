// Package serve implements explanation-as-a-service: a resident HTTP/JSON
// server that loads dataset pairs once into shared immutable state and
// answers explanation requests concurrently.
//
// The paper frames explanation as an interactive debugging loop — users
// iterate on query pairs over the same datasets — so the server is built
// around reuse across requests:
//
//   - datasets are registered once and shared by every request; a
//     dataset's string dictionary is safe for concurrent use, so queries
//     may still intern strings into it;
//   - answers live in one result table keyed on the canonicalized
//     (dataset-pair, query-pair, matches, params) tuple: an entry is either
//     a solve in flight, which concurrent identical requests join and which
//     is cancelled (core.ExplainPrefixContext → milp.SolveContext) when its
//     every client disconnects, or a finished body in an LRU; a
//     budget-limited answer (TimedOut) goes to its waiting clients but is
//     never kept;
//   - each query pair's Stage-1 prefix (core.PairPrefix: both sides'
//     provenance and canonicalization, the right side's candidate index,
//     the raw similarities) is one entry of a per-dataset Stage-1 memo,
//     built once per canonical (query pair, matches, options) key;
//   - each dataset's core.SolveCache replays unchanged MILP partitions.
//
// Datasets are versioned: POST /datasets/{name}/delta applies a
// copy-on-write append/update/delete batch, atomically publishing a new
// immutable generation while in-flight requests keep reading the old one.
// A delta drops only the result-table entries, finished or in flight,
// whose queries read a touched relation. A memo entry is reused while the
// relations both queries read are the same pointers, which copy-on-write
// guarantees for untouched relations; otherwise it advances
// (core.PairPrefix.Advance), rebuilding only the sides whose relations
// changed.
//
// Response bodies are byte-identical to one-shot Explain output for the
// same inputs; cache disposition, timing, and the data version travel in
// headers (X-Explaind-Cache, X-Explaind-Elapsed-Ms, X-Explaind-Version),
// never in the body.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// Request is the POST /explain body. Zero-valued fields mean the library
// defaults (Options zero-value conventions), so a minimal request is just
// the dataset name, the two queries, and the attribute matches.
type Request struct {
	Dataset string `json:"dataset"`
	Q1      string `json:"q1"`
	Q2      string `json:"q2"`
	Matches string `json:"matches"`
	// Alpha/Beta are the coverage/correctness priors (0 = 0.9 default).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// BatchSize > 0 enables smart partitioning with that sub-problem bound.
	BatchSize int `json:"batch_size,omitempty"`
	// TimeoutMS bounds the solver (0 = 60s default, negative = unlimited).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers is the per-request parallelism budget (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// MinSharedTokens raises the blocking threshold of the initial mapping.
	MinSharedTokens int `json:"min_shared_tokens,omitempty"`
	// MinSim drops candidate pairs below this similarity (0 = library
	// default).
	MinSim float64 `json:"min_sim,omitempty"`
	// MinProb drops initial matches below this probability (0 = 0.02).
	MinProb float64 `json:"min_prob,omitempty"`
	// NoSummary disables Stage-3 pattern summaries.
	NoSummary bool `json:"no_summary,omitempty"`
}

// Options tunes the server.
type Options struct {
	// CacheSize bounds the finished answers the result table keeps
	// (entries; default 128).
	CacheSize int
	// MaxWorkers caps the per-request Workers budget (0 = uncapped).
	MaxWorkers int
}

// ConflictError reports a Register against a name that is already taken.
// Callers distinguish it from other registration failures with errors.As.
type ConflictError struct {
	// Name is the dataset name that was already registered.
	Name string
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("serve: dataset %q already registered", e.Name)
}

// Metrics is a point-in-time snapshot of the server's counters.
type Metrics struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Evictions counts finished answers dropped by the LRU capacity
	// bound; a high rate relative to CacheHits means CacheSize is too small
	// for the working set.
	Evictions    int64 `json:"evictions"`
	FlightJoins  int64 `json:"flight_joins"`
	Solves       int64 `json:"solves"`
	SideBuilds   int64 `json:"side_builds"`
	IndexBuilds  int64 `json:"index_builds"`
	Cancelled    int64 `json:"cancelled"`
	Errors       int64 `json:"errors"`
	CachedBodies int64 `json:"cached_bodies"`
	// Stage1Entries counts the Stage-1 memo entries over all datasets: one
	// pair prefix per canonical (query pair, matches, options) key, however
	// many generations a dataset has been through. SideBuilds counts the
	// query sides built for them and IndexBuilds their cold (not advanced)
	// builds.
	Stage1Entries int64 `json:"stage1_entries"`
	Datasets      int64 `json:"datasets"`
	// DeltasApplied counts delta batches accepted; DeltaRows totals their
	// appended+updated+deleted rows.
	DeltasApplied int64 `json:"deltas_applied"`
	DeltaRows     int64 `json:"delta_rows"`
	// Invalidated counts finished answers dropped because a delta touched a
	// relation their queries read.
	Invalidated int64 `json:"invalidated"`
	// PrefixAdvances counts pair prefixes advanced incrementally from the
	// memo's prefix for the same key after a delta changed one of its sides;
	// PrefixBuilds counts prefixes built from scratch.
	PrefixAdvances int64 `json:"prefix_advances"`
	PrefixBuilds   int64 `json:"prefix_builds"`
	// DirtyPartitions totals solution-cache misses of solves that ran on an
	// incrementally advanced prefix — the partitions a delta actually
	// dirtied (per delta: DirtyPartitions / DeltasApplied).
	DirtyPartitions int64 `json:"dirty_partitions"`
	// SolutionHits/SolutionMisses aggregate the per-dataset solution caches;
	// the hit rate is the fraction of MILP sub-problems never re-solved.
	SolutionHits   int64 `json:"solution_hits"`
	SolutionMisses int64 `json:"solution_misses"`
}

// dataVersion is one immutable copy-on-write generation of a dataset pair.
// In-flight requests hold the generation they started on; a delta publishes
// a new one without disturbing them.
type dataVersion struct {
	version  int64
	db1, db2 *relation.Database
}

// Dataset is one registered dataset pair. Its data lives in an atomically
// swapped immutable generation; the Stage-1 memo and the solution cache are
// shared across generations, so untouched query sides are reused and
// unchanged MILP partitions replay for free.
type Dataset struct {
	Name string

	cur atomic.Pointer[dataVersion]
	// deltaMu serializes delta application so versions advance one at a
	// time; readers never take it.
	deltaMu sync.Mutex
	memo    stage1Memo
	solve   *core.SolveCache
}

// current returns the generation new requests start on.
func (d *Dataset) current() *dataVersion { return d.cur.Load() }

// Version returns the dataset's current data version (0 until the first
// delta).
func (d *Dataset) Version() int64 { return d.current().version }

// SolveCacheStats snapshots the dataset's solution-cache counters.
func (d *Dataset) SolveCacheStats() core.SolveCacheStats { return d.solve.Stats() }

// Server answers explanation requests over registered dataset pairs.
type Server struct {
	opts Options

	mu sync.RWMutex
	// guarded by mu
	datasets map[string]*Dataset

	results *resultTable

	base       context.Context
	baseCancel context.CancelFunc

	requests, cacheHits, cacheMisses, flightJoins, solves atomic.Int64
	sideBuilds, indexBuilds, cancelled, errCount          atomic.Int64
	deltasApplied, deltaRows                              atomic.Int64
	prefixAdvances, prefixBuilds, dirtyPartitions         atomic.Int64

	// SolveHook, when set, runs at the start of every actual solve (after
	// single-flight deduplication), once the solve has taken its data
	// generation. Tests use it to hold solves open while concurrent
	// requests pile onto the flight.
	SolveHook func()
}

// New creates a server.
//
//lint:ctxroot the server owns the base context its solve flights derive from; Close cancels it
func New(opts Options) *Server {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 128
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts: opts,
		//lint:ignore guarded constructor: the fresh server is not shared until returned
		datasets:   make(map[string]*Dataset),
		results:    newResultTable(opts.CacheSize),
		base:       ctx,
		baseCancel: cancel,
	}
}

// Close cancels every in-flight solve. The server must not be used after.
func (s *Server) Close() { s.baseCancel() }

// Register adds a dataset pair under a name, shared by every request from
// then on. The caller must not mutate the databases afterwards (apply
// deltas through the server instead). A name collision returns a
// *ConflictError and leaves the existing dataset untouched.
func (s *Server) Register(name string, db1, db2 *relation.Database) error {
	if name == "" {
		return fmt.Errorf("serve: dataset name must be non-empty")
	}
	ds := &Dataset{Name: name, solve: core.NewSolveCache(0)}
	ds.cur.Store(&dataVersion{db1: db1, db2: db2})
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return &ConflictError{Name: name}
	}
	s.datasets[name] = ds
	return nil
}

// Dataset looks a registered dataset up by name.
func (s *Server) Dataset(name string) (*Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.datasets[name]
	return ds, ok
}

// Metrics snapshots the server counters.
func (s *Server) Metrics() Metrics {
	s.mu.RLock()
	n := len(s.datasets)
	var sol core.SolveCacheStats
	var stage1 int64
	for _, ds := range s.datasets {
		st := ds.solve.Stats()
		sol.Hits += st.Hits
		sol.Misses += st.Misses
		stage1 += int64(ds.memo.len())
	}
	s.mu.RUnlock()
	bodies, evictions, invalidated := s.results.stats()
	return Metrics{
		Requests:        s.requests.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMisses.Load(),
		Evictions:       evictions,
		FlightJoins:     s.flightJoins.Load(),
		Solves:          s.solves.Load(),
		SideBuilds:      s.sideBuilds.Load(),
		IndexBuilds:     s.indexBuilds.Load(),
		Cancelled:       s.cancelled.Load(),
		Errors:          s.errCount.Load(),
		CachedBodies:    int64(bodies),
		Stage1Entries:   stage1,
		Datasets:        int64(n),
		DeltasApplied:   s.deltasApplied.Load(),
		DeltaRows:       s.deltaRows.Load(),
		Invalidated:     invalidated,
		PrefixAdvances:  s.prefixAdvances.Load(),
		PrefixBuilds:    s.prefixBuilds.Load(),
		DirtyPartitions: s.dirtyPartitions.Load(),
		SolutionHits:    sol.Hits,
		SolutionMisses:  sol.Misses,
	}
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("POST /datasets/{name}/delta", s.handleDelta)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// Request-body caps. An /explain body is two queries, their attribute
// matches and a few scalars — well under a kilobyte in practice; a delta
// body carries whole row batches.
const (
	maxExplainBody = 1 << 20  // 1 MiB
	maxDeltaBody   = 64 << 20 // 64 MiB
)

// decodeBody decodes r's JSON body into v, reading at most limit bytes;
// numbers decoded into untyped cells stay json.Number. On failure it counts
// the error, writes 413 (body over limit, declared or read) or 400 (not
// valid JSON), and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
		dec.UseNumber()
		if err = dec.Decode(v); err == nil {
			return true
		}
	}
	s.errCount.Add(1)
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
		return false
	}
	httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	return false
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(body)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type dsInfo struct {
		Name    string `json:"name"`
		Rows1   int    `json:"rows1"`
		Rows2   int    `json:"rows2"`
		Version int64  `json:"version"`
	}
	s.mu.RLock()
	out := make([]dsInfo, 0, len(s.datasets))
	for _, ds := range s.datasets {
		dv := ds.current()
		out = append(out, dsInfo{Name: ds.Name, Rows1: dv.db1.TotalRows(), Rows2: dv.db2.TotalRows(), Version: dv.version})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Metrics())
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.requests.Add(1)
	start := time.Now()
	var rq Request
	if !s.decodeBody(w, r, maxExplainBody, &rq) {
		return
	}
	ds, ok := s.Dataset(rq.Dataset)
	if !ok {
		s.errCount.Add(1)
		httpError(w, http.StatusNotFound, "unknown dataset %q", rq.Dataset)
		return
	}
	q1c, q1, err := canonicalQuery(rq.Q1)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "query 1: %v", err)
		return
	}
	q2c, q2, err := canonicalQuery(rq.Q2)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "query 2: %v", err)
		return
	}
	mc, mattr, err := canonicalMatches(rq.Matches)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "attribute matches: %v", err)
		return
	}
	if !mattr.Comparable() {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "queries are not comparable (no attribute matches)")
		return
	}
	if s.opts.MaxWorkers > 0 && (rq.Workers <= 0 || rq.Workers > s.opts.MaxWorkers) {
		rq.Workers = s.opts.MaxWorkers
	}
	key := cacheKey(ds.Name, q1c, q2c, mc, &rq)

	res, ctx, disposition := s.results.join(key, ds.Name, q1, q2, s.base)
	if disposition == "hit" {
		s.cacheHits.Add(1)
		writeResult(w, res.body, disposition, res.version, start)
		return
	}
	s.cacheMisses.Add(1)
	if disposition == "miss" {
		go s.runSolve(ctx, res, ds, &rq, q1, q2, mattr)
	} else {
		s.flightJoins.Add(1)
	}
	select {
	case <-res.done:
		if res.errMsg != "" {
			s.errCount.Add(1)
			httpError(w, res.status, "%s", res.errMsg)
			return
		}
		writeResult(w, res.body, disposition, res.version, start)
	case <-r.Context().Done():
		// Client gone: detach; the last detachment cancels the solve.
		s.cancelled.Add(1)
		s.results.leave(res)
	}
}

// runSolve executes one deduplicated solve and publishes its answer through
// the result table, which keeps it for later requests only if it is whole
// and no delta invalidated it mid-solve.
func (s *Server) runSolve(ctx context.Context, res *result, ds *Dataset, rq *Request, q1, q2 *sqlparse.Select, mattr schemamap.Matching) {
	// A panicking solve fails its own waiters with a 500, never kept,
	// instead of taking the process down.
	defer func() {
		if p := recover(); p != nil {
			s.results.finish(res, nil, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p), 0, false)
		}
	}()
	// The whole solve runs against one generation snapshot; a delta landing
	// mid-solve does not disturb it.
	dv := ds.current()
	if s.SolveHook != nil {
		s.SolveHook()
	}
	s.solves.Add(1)
	body, status, errMsg, timedOut := s.solve(ctx, ds, dv, rq, q1, q2, mattr)
	s.results.finish(res, body, status, errMsg, dv.version, timedOut)
}

// solve runs the explanation on one generation's cached Stage-1 prefix.
// timedOut reports a budget-limited (incumbent) answer.
func (s *Server) solve(ctx context.Context, ds *Dataset, dv *dataVersion, rq *Request, q1, q2 *sqlparse.Select, mattr schemamap.Matching) (body []byte, status int, errMsg string, timedOut bool) {
	popt := pairOptions(rq)
	params, minProb := solveParams(rq)
	pp, advanced, err := s.prefixFor(ds, dv, q1, q2, mattr, popt, params.Workers)
	if errors.Is(err, errBuildPanicked) {
		return nil, http.StatusInternalServerError, err.Error(), false
	}
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err.Error(), false
	}
	res, err := core.ExplainPrefixContext(ctx, pp, nil, minProb, params, ds.solve)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err.Error(), false
	}
	if advanced {
		s.dirtyPartitions.Add(int64(res.Stats.SolveCacheMisses))
	}
	b, err := explain3d.AppendResultJSON(nil, res, !rq.NoSummary)
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error(), false
	}
	return b, http.StatusOK, "", res.Stats.TimedOut
}

// pairEntry is a Stage-1 memo value: a pair prefix and the relations each
// of its sides was built from.
type pairEntry struct {
	pp       *core.PairPrefix
	in1, in2 []any
}

// prefixFor returns generation dv's pair prefix for the canonical (q1, q2,
// matches, options) tuple through the dataset's Stage-1 memo, one entry per
// tuple keyed on the relations both queries read. When a delta changed some
// of them, the entry advances from the memo's previous prefix: a side whose
// relations are unchanged is reused, the other is rebuilt, and
// core.(*PairPrefix).Advance keeps the index and raw match list where the
// rebuilt side's matched cells are unchanged and rescans otherwise (the raw
// list stays byte-identical to a fresh build); advanced reports that path.
// popt comes from pairOptions, so the memo keys on resolved options.
func (s *Server) prefixFor(ds *Dataset, dv *dataVersion, q1, q2 *sqlparse.Select, mattr schemamap.Matching, popt linkage.PairOptions, workers int) (*core.PairPrefix, bool, error) {
	key := fmt.Sprintf("%s\x1f%s\x1f%s\x1f%g|%d", q1, q2, matchingText(mattr), popt.MinSim, popt.MinSharedTokens)
	in1, in2 := readSet(q1, dv.db1), readSet(q2, dv.db2)
	v, advanced, err := ds.memo.get(key, dv.version, append(slices.Clip(in1), in2...), func(prev any) (any, bool, error) {
		var old *core.PairPrefix
		var side1, side2 *core.BuiltSide
		if prev != nil {
			pe := prev.(*pairEntry)
			old = pe.pp
			if slices.Equal(pe.in1, in1) {
				side1 = old.Side1
			}
			if slices.Equal(pe.in2, in2) {
				side2 = old.Side2
			}
		}
		var err error
		if side1 == nil {
			s.sideBuilds.Add(1)
			if side1, err = core.BuildSide(q1, dv.db1, mattr.LeftAttrs(), "Q1"); err != nil {
				return nil, false, err
			}
		}
		if side2 == nil {
			s.sideBuilds.Add(1)
			if side2, err = core.BuildSide(q2, dv.db2, mattr.RightAttrs(), "Q2"); err != nil {
				return nil, false, err
			}
		}
		var pp *core.PairPrefix
		if old != nil {
			if pp, _, err = old.Advance(side1, side2, workers); err == nil {
				s.prefixAdvances.Add(1)
			}
		} else {
			s.indexBuilds.Add(1)
			s.prefixBuilds.Add(1)
			pp, err = core.BuildPairPrefix(side1, side2, mattr, popt, workers)
		}
		if err != nil {
			return nil, false, err
		}
		return &pairEntry{pp: pp, in1: in1, in2: in2}, old != nil, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*pairEntry).pp, advanced, nil
}

// readSet returns the relations q reads from db, in query order; a missing
// relation appears as nil and fails BuildSide, and failures are not kept.
func readSet(q *sqlparse.Select, db *relation.Database) []any {
	var in []any
	for _, t := range q.Tables() {
		r, _ := db.Relation(t)
		in = append(in, r)
	}
	return in
}

// writeResult writes a finished body with cache/timing/version metadata in
// headers, keeping the body byte-identical to one-shot output.
func writeResult(w http.ResponseWriter, body []byte, disposition string, version int64, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Explaind-Cache", disposition)
	w.Header().Set("X-Explaind-Version", fmt.Sprintf("%d", version))
	w.Header().Set("X-Explaind-Elapsed-Ms", fmt.Sprintf("%.3f", float64(time.Since(start).Microseconds())/1000))
	w.Write(body)
}
