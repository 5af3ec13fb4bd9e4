package milp

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"time"
)

// Memo lets SolveContext calls share block solutions: a block whose
// sub-model, warm start and solver hooks are byte-equal to one solved
// before replays that solve's optimal answer instead of searching again,
// so identical blocks get identical answers wherever they sit. A block
// another call is solving right now is waited for, not solved twice, so
// calls sharing a memo should share a deadline. Only optimal results are
// kept. The zero value is ready for concurrent use; a memo grows with
// every distinct block, so it should live for one instance solve.
type Memo struct {
	mu sync.Mutex
	// guarded by mu
	entries map[string]*memoEntry
}

// memoEntry is one distinct block. Its creator sets ok (an optimal
// result), x, objective and dense, then closes done.
type memoEntry struct {
	done      chan struct{}
	ok        bool
	x         []float64
	objective float64
	dense     bool
}

// claim returns key's entry and whether the caller created it; a creator
// must solve the block and hand the result to finish.
func (m *Memo) claim(key []byte) (*memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[string(key)]; ok {
		return e, false
	}
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry)
	}
	e := &memoEntry{done: make(chan struct{})}
	m.entries[string(key)] = e
	return e, true
}

// finish publishes the creator's result. Any result but an optimal one
// leaves the memo: the waiters and the next claim solve the block again.
func (m *Memo) finish(key []byte, e *memoEntry, res bbResult) {
	if res.status == StatusOptimal {
		e.ok, e.x, e.objective, e.dense = true, append([]float64(nil), res.x...), res.objective, res.dense
	} else {
		m.mu.Lock()
		delete(m.entries, string(key))
		m.mu.Unlock()
	}
	close(e.done)
}

// solveBlock is branchAndBound through opt.Memo, when there is one. A
// replayed result has hits 1 and no nodes or iterations.
func solveBlock(ctx context.Context, sub *Model, opt Options, warm []float64, deadline time.Time, sc *scratch) bbResult {
	if opt.Memo == nil {
		return branchAndBound(ctx, sub, opt, warm, deadline, sc)
	}
	sc.key = appendKey(sc.key[:0], sub, warm, opt)
	e, created := opt.Memo.claim(sc.key)
	if created {
		res := branchAndBound(ctx, sub, opt, warm, deadline, sc)
		opt.Memo.finish(sc.key, e, res)
		return res
	}
	<-e.done
	if e.ok {
		return bbResult{status: StatusOptimal, objective: e.objective, x: e.x, dense: e.dense, hits: 1}
	}
	return branchAndBound(ctx, sub, opt, warm, deadline, sc)
}

// appendKey appends the memo key of solving sub from warm under opt to k:
// the hooks branch-and-bound reads, the sense, each variable's bounds,
// objective, type and priority, each row's sense, right-hand side and
// terms, then the warm start, if any (one value per variable). Floats
// enter as bits and lists with their lengths, so keys are equal exactly
// when the solves run the same search. Names are left out.
func appendKey(k []byte, sub *Model, warm []float64, opt Options) []byte {
	k = append(k, byte(opt.engine), flag(opt.cold), flag(opt.noPresolve), flag(disableDevex), byte(sub.sense))
	k = binary.AppendUvarint(k, uint64(len(sub.vars)))
	for _, v := range sub.vars {
		k = appendBits(appendBits(appendBits(k, v.lb), v.ub), v.obj)
		k = binary.AppendVarint(append(k, byte(v.vt)), int64(v.pri))
	}
	k = binary.AppendUvarint(k, uint64(len(sub.rows)))
	for _, r := range sub.rows {
		k = binary.AppendUvarint(appendBits(append(k, byte(r.sense)), r.rhs), uint64(len(r.terms)))
		for _, t := range r.terms {
			k = appendBits(binary.AppendUvarint(k, uint64(t.Var)), t.Coef)
		}
	}
	for _, w := range warm {
		k = appendBits(k, w)
	}
	return k
}

func appendBits(k []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(k, math.Float64bits(f))
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}
