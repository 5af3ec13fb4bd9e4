package linkage

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sharded Stage-1 candidate scan. The inverted token index is split by
// token-string hash into ix.shards shards (ix.tokShard); each shard owns
// the posting lists of its tokens. The scan runs as a (left-row-chunk ×
// shard) task grid: a shard task merges only its own tokens' posting lists
// for the chunk's rows — a working set bounded by one shard's postings —
// and emits per-row (right row, partial count) runs in discovery order.
// When a chunk's last shard task finishes, the finishing worker sums the
// per-shard runs into its dense counter and applies the unsharded scan's
// accept rule (pairScorer.accept): similarity bound, threshold + exact
// verification, score, and a sort of the accepted matches only.
//
// Output is byte-identical to the unsharded scan: the verified candidate
// set is exactly {pairs sharing >= MinSharedTokens true tokens} on every
// path, because merged counts undercount the true shared-token count by at
// most the row's pruned tokens, and every candidate in the uncertain band
// proves its real count against the full token lists (sharedAtLeast). The
// per-left-row prefix filter stays unsharded-only — no shard sees enough of
// a row's posting lists to pick the longest — but global stop-word pruning
// applies identically.

// shardRun is one (right row, partial shared-token count) entry of a shard
// task's output for one left row.
type shardRun struct {
	j, cnt int32
}

func (ix *Index) scanSharded(lv *leftView, workers int) []Match {
	n, nRight, S := lv.n, ix.nRight, ix.shards
	ps := pairScorer{ix: ix, lv: lv}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks*S {
		workers = nChunks * S
	}
	// parts[c][s][local] holds chunk c's runs from shard s for row
	// c*chunk+local; remaining[c] counts the chunk's unfinished shard
	// tasks. Tasks are issued chunk-major, so at most ~workers/S chunks
	// carry unmerged partials at a time, and merged chunks drop theirs —
	// peak memory is bounded by the worker count, not the relation size.
	parts := make([][][][]shardRun, nChunks)
	remaining := make([]atomic.Int32, nChunks)
	for c := range parts {
		parts[c] = make([][][]shardRun, S)
		remaining[c].Store(int32(S))
	}
	blocks := make([][]Match, nChunks)
	// mergeChunk sums each row's per-shard runs into the worker's dense
	// counter and hands the row to the same accept rule as the unsharded
	// scan. The counter undercounts by at most the row's globally pruned
	// tokens — the per-row prefix filter does not apply here.
	mergeChunk := func(c, lo, hi int, cnt, touched []int32) []int32 {
		var out []Match
		for local := 0; local < hi-lo; local++ {
			i := lo + local
			touched = touched[:0]
			for s := 0; s < S; s++ {
				if rows := parts[c][s]; rows != nil {
					for _, r := range rows[local] {
						if cnt[r.j] == 0 {
							touched = append(touched, r.j)
						}
						cnt[r.j] += r.cnt
					}
				}
			}
			if len(touched) == 0 {
				continue
			}
			skippedHere := 0
			if ix.anySkip {
				for _, tok := range lv.block[i] {
					if ix.globallySkipped(tok) {
						skippedHere++
					}
				}
			}
			out = ps.accept(i, touched, cnt, skippedHere, out)
		}
		blocks[c] = out
		parts[c] = nil // chunk merged: free its partials eagerly
		return touched
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cnt := make([]int32, nRight)
			touched := make([]int32, 0, 64)
			for {
				t := int(next.Add(1)) - 1
				if t >= nChunks*S {
					return
				}
				// Chunk-major order: all of one chunk's shard tasks are
				// grabbed before the next chunk's, so chunks finish (and
				// free their partials) roughly in order.
				c, s := t/S, uint8(t%S)
				lo, hi := c*chunk, (c+1)*chunk
				if hi > n {
					hi = n
				}
				rows := make([][]shardRun, hi-lo)
				for i := lo; i < hi; i++ {
					touched = touched[:0]
					for _, tok := range lv.block[i] {
						if int(tok) >= len(ix.tokShard) || ix.tokShard[tok] != s {
							continue
						}
						for _, j := range ix.post[tok] {
							if cnt[j] == 0 {
								touched = append(touched, j)
							}
							cnt[j]++
						}
					}
					if len(touched) == 0 {
						continue
					}
					runs := make([]shardRun, len(touched))
					for k, j := range touched {
						runs[k] = shardRun{j: j, cnt: cnt[j]}
						cnt[j] = 0
					}
					rows[i-lo] = runs
				}
				parts[c][s] = rows
				if remaining[c].Add(-1) == 0 {
					touched = mergeChunk(c, lo, hi, cnt, touched)
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	out := make([]Match, 0, total)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}
