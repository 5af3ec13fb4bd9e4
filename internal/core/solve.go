package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"explain3d/internal/graph"
	"explain3d/internal/linkage"
	"explain3d/internal/milp"
)

// SolveInstance runs Stage 2 of explain3d on an instance: partition the
// tuple-match graph (Section 4) when BatchSize > 0, encode each
// sub-problem as a MILP (Algorithm 1), solve to optimality, and merge the
// decoded explanations. With BatchSize = 0 the whole instance is one
// optimization problem — the paper's NOOPT configuration.
//
// Sub-problems are independent, so they are solved by a pool of
// Params.Workers goroutines sharing one solver deadline; fragments are
// collected by partition index before the final sort, so the output is
// identical at any worker count (when solves complete without hitting a
// budget — budget-limited incumbents are inherently timing-dependent).
//
//lint:ctxroot public entry point without a ctx parameter: compatibility wrapper deriving the root solver context
func SolveInstance(inst *Instance, p Params) (*Explanations, *Stats, error) {
	return SolveInstanceContext(context.Background(), inst, p)
}

// SolveInstanceContext is SolveInstance bounded by a caller context: the
// solver budget (Params.SolverTimeLimit) derives from ctx, so cancelling it
// — a server request aborting on client disconnect, a CLI catching SIGINT —
// stops in-flight sub-problems cooperatively. Cancellation is not an error:
// each interrupted sub-problem returns its incumbent (or the
// delete-everything fallback) and Stats.TimedOut is set, exactly like an
// expired time budget.
func SolveInstanceContext(ctx context.Context, inst *Instance, p Params) (*Explanations, *Stats, error) {
	return SolveInstanceCached(ctx, inst, p, nil)
}

// SolveInstanceCached is SolveInstanceContext with a solution cache: each
// sub-problem first consults cache by content hash and, on a hit, replays
// the stored local-coordinate fragment instead of encoding and solving.
// Because the key covers everything the solve depends on and only proven-
// optimal results are cached, the merged output is byte-identical to an
// uncached run — unchanged partitions of an incrementally maintained
// instance become free. cache may be nil (no caching) and may be shared
// across calls and goroutines.
//
// Inside the call, each sub-problem is split into its match-connected
// components, each exactly one MILP block, and the workers share one
// component memo keyed above encode: a component equal to one the call
// has solved replays that solution (and its counts) without being encoded,
// one another worker is searching is waited for, and a worker encodes the
// components it claims into one model and solves them in one batch.
func SolveInstanceCached(ctx context.Context, inst *Instance, p Params, cache *SolveCache) (*Explanations, *Stats, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	stats := &Stats{}

	subs, err := splitInstance(inst, p)
	if err != nil {
		return nil, nil, err
	}
	stats.Partitions = len(subs)

	// One context bounds every sub-problem: in-flight workers cancel
	// cooperatively when the shared budget expires, instead of each
	// slicing the remaining time independently.
	var cancel context.CancelFunc
	if p.SolverTimeLimit > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.SolverTimeLimit)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// All workers share one component memo (see SolveInstanceCached); call
	// tells the solution-cache entries this call stores from older ones.
	memo, call := &compMemo{}, new(byte)
	frags := make([]*Explanations, len(subs))
	subStats := make([]Stats, len(subs))
	var (
		errOnce  sync.Once
		failed   atomic.Bool
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			failed.Store(true)
			cancel() // stop in-flight workers; their results are discarded
		})
	}
	solveSub := func(w *worker, si int) {
		if failed.Load() {
			// A sub-problem already failed; skip the (expensive) encode of
			// the rest. Note this guards on the error flag, not ctx.Err():
			// on a legitimate timeout every sub-problem must still run to
			// emit its delete-everything fallback.
			return
		}
		sub := subs[si]
		frag := &Explanations{}
		frags[si] = frag
		st := &subStats[si]
		w.place(sub)
		var key string
		if cache != nil {
			key = w.subKey()
			if e, ok := cache.lookup(key); ok {
				// Replay the stored fragment against this sub-problem's ids;
				// stored stats (with the cache counters re-zeroed at store
				// time) keep the merged totals content-deterministic.
				*st = e.stats
				if e.call == call {
					// An equal sub-problem of this call stored it: count
					// the replay as its components' memo hits would count.
					*st = Stats{MILPVars: st.MILPVars, MILPRows: st.MILPRows,
						SparseBlocks: st.SparseBlocks, DenseBlocks: st.DenseBlocks,
						MemoHits: st.SparseBlocks + st.DenseBlocks}
				}
				st.SolveCacheHits = 1
				*frag = *e.frag.globalize(sub)
				return
			}
			st.SolveCacheMisses = 1
		}
		// No pre-encode short-circuit on an expired budget: encoding still
		// pays off because the solver returns the warm-start (greedy)
		// incumbent as StatusLimit, so budgets degrade to greedy-quality
		// solutions rather than delete-everything fallbacks.
		sols, ok, err := w.solve(ctx, memo, st)
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			// Budget expired before any feasible point: fall back to
			// deleting everything in this sub-problem (always complete).
			st.TimedOut = true
			for _, id := range sub.left {
				frag.Prov = append(frag.Prov, ProvExpl{Side: Left, Tuple: id})
			}
			for _, id := range sub.right {
				frag.Prov = append(frag.Prov, ProvExpl{Side: Right, Tuple: id})
			}
			return
		}
		lf := w.assemble(sols)
		*frag = *lf.globalize(sub)
		if cache != nil && !st.TimedOut {
			stored := *st
			stored.SolveCacheMisses = 0
			cache.store(key, lf, stored, call)
		}
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(subs) {
		workers = len(subs)
	}
	if workers <= 1 {
		w := newWorker(inst, p)
		for si := range subs {
			solveSub(w, si)
			if failed.Load() {
				break
			}
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := newWorker(inst, p)
				for si := range work {
					solveSub(w, si)
				}
			}()
		}
		for si := range subs {
			if failed.Load() {
				break
			}
			work <- si
		}
		close(work)
		wg.Wait()
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Deterministic merge: partition order, then the canonical sort.
	result := &Explanations{}
	for si := range subs {
		frag := frags[si]
		result.Prov = append(result.Prov, frag.Prov...)
		result.Val = append(result.Val, frag.Val...)
		result.Evidence = append(result.Evidence, frag.Evidence...)
		stats.MILPVars += subStats[si].MILPVars
		stats.MILPRows += subStats[si].MILPRows
		stats.Nodes += subStats[si].Nodes
		stats.Iters += subStats[si].Iters
		stats.Refactors += subStats[si].Refactors
		stats.LUFill += subStats[si].LUFill
		stats.CertInfeas += subStats[si].CertInfeas
		stats.SparseBlocks += subStats[si].SparseBlocks
		stats.DenseBlocks += subStats[si].DenseBlocks
		stats.MemoHits += subStats[si].MemoHits
		stats.SolveCacheHits += subStats[si].SolveCacheHits
		stats.SolveCacheMisses += subStats[si].SolveCacheMisses
		if subStats[si].TimedOut {
			stats.TimedOut = true
		}
	}
	sortExplanations(result)
	stats.SolveTime = time.Since(start)
	return result, stats, nil
}

// solve solves every component of the placed sub-problem and returns
// their solutions, indexed by component. It claims each component in memo
// and replays those another worker has solved, searches its own claims in
// one batch, then waits for the components another worker is searching;
// one whose search there was cut short it searches itself. It returns
// false when a search found no feasible point within the budget.
func (w *worker) solve(ctx context.Context, memo *compMemo, st *Stats) ([]*compSol, bool, error) {
	w.splitSub()
	lo, hi := w.impactBounds()
	nc := int(w.nc)
	sols, ents := grow(&w.sols, nc), grow(&w.ents, nc)
	claimed, joined := w.claimed[:0], w.joined[:0]
	for c := int32(0); c < int32(nc); c++ {
		w.key = w.appendCompKey(w.key[:0], c, lo, hi)
		e, created := memo.claim(w.key)
		ents[c] = e
		if created {
			claimed = append(claimed, c)
		} else {
			joined = append(joined, c)
		}
	}
	w.claimed, w.joined = claimed, joined
	if ok, err := w.search(ctx, claimed, lo, hi, st, memo); !ok || err != nil {
		if err == nil {
			// The sub-problem falls back to deleting everything, but its
			// MILPVars and MILPRows still cover every component.
			w.encode(joined, lo, hi)
			for k := range joined {
				st.MILPVars += w.vars[k]
				st.MILPRows += w.rows[k]
			}
		}
		return nil, ok, err
	}
	retry := w.retry[:0]
	for _, c := range joined {
		e := ents[c]
		<-e.done
		if e.sol == nil {
			retry = append(retry, c)
			continue
		}
		sols[c] = e.sol
		st.MemoHits++
		st.MILPVars += e.sol.vars
		st.MILPRows += e.sol.rows
		if e.sol.dense {
			st.DenseBlocks++
		} else {
			st.SparseBlocks++
		}
	}
	w.retry = retry
	ok, err := w.search(ctx, retry, lo, hi, st, nil)
	return sols, ok, err
}

// search encodes the components batch into the worker's model, solves
// them in one SolveContext call and reads each into w.sols. With memo,
// batch holds the worker's claims: each is published when the solve is
// optimal and released otherwise (SolveContext reports one status for the
// whole batch). It returns false on StatusNoSolution.
func (w *worker) search(ctx context.Context, batch []int32, lo, hi float64, st *Stats, memo *compMemo) (bool, error) {
	if len(batch) == 0 {
		return true, nil
	}
	w.encode(batch, lo, hi)
	sol, err := milp.SolveContext(ctx, w.m, milp.Options{WarmStart: w.warmStart(batch)})
	if err == nil {
		for k := range batch {
			st.MILPVars += w.vars[k]
			st.MILPRows += w.rows[k]
		}
		st.Nodes += sol.Nodes
		st.Iters += sol.Iters
		st.Refactors += sol.Refactors
		st.LUFill += sol.LUFill
		st.CertInfeas += sol.CertInfeas
		st.SparseBlocks += sol.SparseBlocks
		st.DenseBlocks += sol.DenseBlocks
		switch sol.Status {
		case milp.StatusOptimal, milp.StatusLimit:
			if sol.Blocks != len(batch) {
				err = fmt.Errorf("core: %d components encoded into %d blocks", len(batch), sol.Blocks)
			}
		case milp.StatusNoSolution:
		default:
			// The encoding always admits the all-deleted solution, so an
			// infeasible or unbounded status signals an encoding bug.
			err = fmt.Errorf("core: sub-problem unexpectedly %v (%s)", sol.Status, w.m)
		}
	} else {
		err = fmt.Errorf("core: solving sub-problem: %w", err)
	}
	found := err == nil && sol.Status != milp.StatusNoSolution
	for k, c := range batch {
		var cs *compSol
		if found {
			cs = w.read(sol, k, c)
			w.sols[c] = cs
		}
		if memo != nil {
			if sol == nil || sol.Status != milp.StatusOptimal {
				cs = nil
			}
			memo.finish(w.ents[c], cs)
		}
	}
	if err != nil {
		return false, err
	}
	if sol.Status != milp.StatusOptimal {
		st.TimedOut = true
	}
	return found, nil
}

// splitInstance prepares the optimization units. Matches whose probability
// would contribute nothing are assumed pre-filtered. With partitioning
// enabled, the smart partitioner bounds every unit to BatchSize tuples;
// cut matches are dropped (they cannot enter the evidence), exactly as in
// the paper.
func splitInstance(inst *Instance, p Params) ([]*subProblem, error) {
	if p.BatchSize <= 0 {
		all := &subProblem{matches: inst.Matches}
		for i := 0; i < inst.T1.Len(); i++ {
			all.left = append(all.left, i)
		}
		for j := 0; j < inst.T2.Len(); j++ {
			all.right = append(all.right, j)
		}
		return []*subProblem{all}, nil
	}
	bip := graph.NewBipartite(inst.T1.Len(), inst.T2.Len())
	bip.Edges = make([]graph.BEdge, 0, len(inst.Matches))
	for _, m := range inst.Matches {
		bip.AddMatch(m.L, m.R, m.P)
	}
	parts, err := graph.SmartPartition(bip, graph.DefaultSmartOptions(p.BatchSize))
	if err != nil {
		return nil, err
	}
	return buildSubProblems(inst, parts), nil
}

// buildSubProblems turns a node partitioning into optimization units. The
// partition-of table starts at a -1 sentinel, not zero: a node the
// partitioner left unassigned must not be silently treated as partition 0,
// where a match between two such nodes would be appended to subs[0] even
// though its tuples are not in that sub-problem's left/right — corrupting
// the encode. Matches with an unassigned endpoint are dropped instead,
// exactly like cut matches.
//
// Every sub-problem's slices are carved from two flat arrays: one holds
// each part's left ids and then its right ids, in the part's node order;
// the other holds the kept matches, placed by counting sort on their part
// and so in instance order within it.
func buildSubProblems(inst *Instance, parts [][]int) []*subProblem {
	n1 := inst.T1.Len()
	partOf := make([]int, n1+inst.T2.Len())
	for i := range partOf {
		partOf[i] = -1
	}
	nodes := 0
	for pi, part := range parts {
		nodes += len(part)
		for _, node := range part {
			partOf[node] = pi
		}
	}
	ids := make([]int, 0, nodes)
	lEnd := make([]int, len(parts))
	rEnd := make([]int, len(parts))
	for pi, part := range parts {
		for _, node := range part {
			if node < n1 {
				ids = append(ids, node)
			}
		}
		lEnd[pi] = len(ids)
		for _, node := range part {
			if node >= n1 {
				ids = append(ids, node-n1)
			}
		}
		rEnd[pi] = len(ids)
	}
	// matchAt[pi+1] first counts part pi's kept matches, then becomes the
	// end of its run.
	matchAt := make([]int, len(parts)+1)
	for _, m := range inst.Matches {
		if pl := partOf[m.L]; pl >= 0 && pl == partOf[n1+m.R] {
			matchAt[pl+1]++
		}
	}
	for pi := range parts {
		matchAt[pi+1] += matchAt[pi]
	}
	matches := make([]linkage.Match, matchAt[len(parts)])
	next := append([]int(nil), matchAt[:len(parts)]...)
	for _, m := range inst.Matches {
		pl := partOf[m.L]
		if pl < 0 || pl != partOf[n1+m.R] {
			continue // cut by the partitioning, or endpoint unassigned
		}
		matches[next[pl]] = m
		next[pl]++
	}
	backing := make([]subProblem, len(parts))
	subs := make([]*subProblem, len(parts))
	start := 0
	for pi := range parts {
		backing[pi] = subProblem{
			left:    ids[start:lEnd[pi]:lEnd[pi]],
			right:   ids[lEnd[pi]:rEnd[pi]:rEnd[pi]],
			matches: matches[matchAt[pi]:matchAt[pi+1]:matchAt[pi+1]],
		}
		subs[pi] = &backing[pi]
		start = rEnd[pi]
	}
	return subs
}

// FilterMatches drops matches below a probability floor; stage 1 applies
// it so near-zero candidates do not bloat the MILP.
func FilterMatches(matches []linkage.Match, minP float64) []linkage.Match {
	out := make([]linkage.Match, 0, len(matches))
	for _, m := range matches {
		if m.P >= minP {
			out = append(out, m)
		}
	}
	return out
}
