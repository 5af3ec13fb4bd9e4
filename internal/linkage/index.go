package linkage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"explain3d/internal/relation"
)

// Index is the candidate-generation index over one fixed right-side
// relation: the joint token space, the right rows' token lists, typed
// match columns and shapes, and the inverted posting lists (token id →
// right row ids) with the global stop-word prune already applied. It is
// Stage 1's one index: a linkage run builds it and scans one left
// relation, and an incremental Stage-1 prefix (core.PairPrefix.Advance)
// scans it again with the left rows a data delta dirtied.
//
// An Index is immutable after BuildIndex returns except for the joint token
// intern map, which is mutex-guarded; concurrent Similarities calls against
// one Index are safe, and their output does not depend on which left
// relations were scanned before.
type Index struct {
	ts       *tokenSpace
	opt      PairOptions // blocking options baked in at build time
	rightIdx []int
	nRight   int
	rTok     [][][]uint32
	rCols    []matchCol
	rBlock   [][]uint32
	post     [][]int32
	skipped  []bool
	anySkip  bool
	// rShape numbers each right row's shape, everything the similarity
	// bound reads of the row; shapes holds shape q's per-column codes at
	// shapes[q*len(rightIdx):] (see rightShapes).
	rShape []int32
	shapes []int32
}

// Posting lists shorter than skipFloor are not worth a verify pass:
// skipping them saves almost no merge work but still lowers the exact
// counting threshold, pushing more candidates into verification.
const skipFloor = 4

// BuildIndex indexes the right side of a linkage run: per-row token lists
// for the matched columns rightIdx, typed match-column views, and the
// inverted posting lists with up to MinSharedTokens-1 stop-word lists
// pruned.
func BuildIndex(right *relation.Relation, rightIdx []int, opt PairOptions) (*Index, error) {
	if len(rightIdx) == 0 {
		return nil, fmt.Errorf("linkage: BuildIndex needs a non-empty attribute index list")
	}
	if opt.MinSharedTokens < 1 {
		opt.MinSharedTokens = 1
	}
	ix := &Index{ts: newTokenSpace(), opt: opt, rightIdx: rightIdx, nRight: right.Len()}
	ix.rTok = ix.ts.tokenColumns(right, rightIdx)
	ix.rCols = matchColumns(right, rightIdx)
	ix.rBlock = unionRows(ix.rTok, ix.nRight)
	ix.rShape, ix.shapes = rightShapes(ix.rTok, ix.rCols, ix.nRight)
	ix.post = make([][]int32, ix.ts.size())
	for j, toks := range ix.rBlock {
		for _, t := range toks {
			ix.post[t] = append(ix.post[t], int32(j))
		}
	}
	ix.prune()
	return ix, nil
}

// rightShapes numbers the distinct shapes of the right rows. A row's shape
// is, per matched column, its cell's NULL flag, numeric flag and token
// count b, coded as -1 for NULL and b<<1|numeric otherwise (b is 0 in a
// column without token lists): exactly what bound reads of a right row.
func rightShapes(rTok [][][]uint32, rCols []matchCol, n int) (rShape, shapes []int32) {
	rShape = make([]int32, n)
	ids := make(map[string]int32)
	code := make([]int32, len(rCols))
	key := make([]byte, 0, 4*len(rCols))
	for j := 0; j < n; j++ {
		key = key[:0]
		for k := range rCols {
			c := int32(-1)
			if !rCols[k].null[j] {
				c = 0
				if rTok[k] != nil {
					c = int32(len(rTok[k][j])) << 1
				}
				if rCols[k].num[j] {
					c |= 1
				}
			}
			code[k] = c
			key = binary.LittleEndian.AppendUint32(key, uint32(c))
		}
		q, ok := ids[string(key)]
		if !ok {
			q = int32(len(ids))
			ids[string(key)] = q
			shapes = append(shapes, code...)
		}
		rShape[j] = q
	}
	return rShape, shapes
}

// prune applies the global stop-word prune: a single token cannot satisfy
// MinSharedTokens > 1 alone, so up to MinSharedTokens-1 posting lists — the
// longest, typically stop-word-frequency tokens that dominate candidate-
// merge cost — can be dropped entirely. Every qualifying pair still shares
// at least one surviving token, so candidate discovery stays complete;
// borderline candidates verify their exact shared-token count against the
// full per-row token lists during the scan. It expects ix.post to hold
// full (unpruned) lists and must run exactly once per Index.
func (ix *Index) prune() {
	if ix.opt.MinSharedTokens <= 1 {
		return
	}
	ix.skipped = make([]bool, len(ix.post))
	for s := 0; s < ix.opt.MinSharedTokens-1; s++ {
		best, bestLen := -1, skipFloor-1
		for t, p := range ix.post {
			if !ix.skipped[t] && len(p) > bestLen {
				best, bestLen = t, len(p)
			}
		}
		if best < 0 {
			break
		}
		ix.skipped[best] = true
		ix.post[best] = nil
		ix.anySkip = true
	}
}

// postings returns the posting list of a joint token id. Tokens interned
// after the index was built (left-side tokens of a later query) have no
// right-side postings by construction.
func (ix *Index) postings(tok uint32) []int32 {
	if int(tok) < len(ix.post) {
		return ix.post[tok]
	}
	return nil
}

// globallySkipped reports whether the token's posting list was pruned.
func (ix *Index) globallySkipped(tok uint32) bool {
	return ix.skipped != nil && int(tok) < len(ix.skipped) && ix.skipped[tok]
}

// leftView is one left relation prepared for scanning against an Index:
// per-row token lists translated into the index's joint token space, typed
// match columns, and the per-row blocking token union.
type leftView struct {
	n     int
	tok   [][][]uint32
	cols  []matchCol
	block [][]uint32
}

func (ix *Index) buildLeftView(left *relation.Relation, leftIdx []int) *leftView {
	return &leftView{
		n:    left.Len(),
		tok:  ix.ts.tokenColumns(left, leftIdx),
		cols: matchColumns(left, leftIdx),
	}
}

// Similarities scores candidate tuple pairs between a left relation and
// the indexed right side over the aligned matching attribute indexes
// (leftIdx[k] ↔ the index's rightIdx[k]), under the PairOptions the index
// was built with.
//
// The left side's dictionary-encoded string columns are tokenized into the
// index's joint token-id space (once per distinct string per call), and
// each left row merges the posting lists of its tokens with a shared-token
// counter. A pair is scored when it shares at least MinSharedTokens
// distinct tokens — the exact match set of a pairwise scan of every
// blocking candidate, at O(Σ posting-list products) instead of O(|L|·|R|)
// blocking probes. Each row skips the posting lists MinSim and
// MinSharedTokens prove it can do without (see scan). Jaccard runs on
// sorted token-id slices instead of string-keyed maps.
//
// workers splits the scan into contiguous left-row ranges (0 defaults to
// GOMAXPROCS); output is identical at any worker count. Safe for
// concurrent use.
func (ix *Index) Similarities(left *relation.Relation, leftIdx []int, workers int) ([]Match, error) {
	if len(leftIdx) != len(ix.rightIdx) || len(leftIdx) == 0 {
		return nil, fmt.Errorf("linkage: need equal, non-empty attribute index lists (got %d and %d)", len(leftIdx), len(ix.rightIdx))
	}
	return ix.scan(ix.buildLeftView(left, leftIdx), workers), nil
}

// pairScorer binds one left view's and the index's typed match columns: the
// pair similarity, its shared-token upper bound, and the per-row accept
// rule.
type pairScorer struct {
	ix *Index
	lv *leftView
}

// score appends (i, j) to out when its similarity — the mean over matched
// columns of NumericSim, token Jaccard, or the generic ValueSim — reaches
// MinSim and is positive.
func (ps pairScorer) score(i, j int, out []Match) []Match {
	lv, ix := ps.lv, ps.ix
	total := 0.0
	for k := range lv.cols {
		lc, rc := &lv.cols[k], &ix.rCols[k]
		if lc.null[i] || rc.null[j] {
			continue // NULL has similarity 0 to everything
		}
		switch {
		case lc.num[i] && rc.num[j]:
			total += NumericSim(lc.f[i], rc.f[j])
		case lv.tok[k] != nil && ix.rTok[k] != nil:
			total += jaccardSorted(lv.tok[k][i], ix.rTok[k][j])
		default:
			// Asymmetric pair — a numeric-only column matched against
			// a tokenized one: the generic kind-dispatched similarity.
			total += ValueSim(lc.value(i), rc.value(j))
		}
	}
	s := total / float64(len(lv.cols))
	if s >= ps.ix.opt.MinSim && s > 0 {
		out = append(out, Match{L: i, R: j, Sim: s})
	}
	return out
}

// bound returns an upper bound on score's similarity for left row i and
// any right row of shape q when the two rows' blocking token lists share
// at most shared tokens. It follows score's case split column by column; a
// token column's Jaccard m/(a+b−m) is bounded with m = min(shared, a, b),
// since every column's intersection is a subset of the union rows'
// intersection. The bound holds bit for bit in floating point: each term's
// numerator is no smaller and its denominator no larger than score's
// (correctly rounded division is monotone), and the sum and the division
// by the column count run in score's order, where rounding is monotone
// too. For the same reasons it is non-decreasing in shared, bit for bit.
func (ps pairScorer) bound(i int, q int32, shared int) float64 {
	lv, ix := ps.lv, ps.ix
	shape := ix.shapes[int(q)*len(lv.cols):]
	total := 0.0
	for k := range lv.cols {
		lc, rs := &lv.cols[k], shape[k]
		if lc.null[i] || rs < 0 {
			continue
		}
		switch {
		case lc.num[i] && rs&1 != 0:
			total++
		case lv.tok[k] != nil && ix.rTok[k] != nil:
			a, b := len(lv.tok[k][i]), int(rs>>1)
			if a == 0 || b == 0 {
				continue
			}
			m := min(shared, a, b)
			total += float64(m) / float64(a+b-m)
		default:
			total++
		}
	}
	return total / float64(len(lv.cols))
}

// threshold returns the fewest shared blocking tokens at which bound(i, q,
// ·) reaches MinSim and is positive, found by binary search (bound is
// non-decreasing in the shared count), or MaxInt32 when n — the row's
// number of blocking tokens — does not suffice: bound stops growing at n,
// since no token column of the row has more than n tokens. Either way a
// count passes the bound check exactly when it is at least the threshold.
func (ps pairScorer) threshold(i int, q int32, n int) int32 {
	minSim := ps.ix.opt.MinSim
	s := sort.Search(n+1, func(s int) bool {
		ub := ps.bound(i, q, s)
		return !(ub < minSim || ub <= 0)
	})
	if s > n {
		return math.MaxInt32
	}
	return int32(s)
}

// scanScratch is one scan worker's reusable candidate state: a dense
// shared-token counter indexed by right row id plus the list of touched
// rows, reset between rows — no per-row map allocation; order, the current
// row's tokens by descending posting length; and the per-shape threshold
// memo, where thr[q] holds for left row stamp[q]−1 only, so moving to the
// next row needs no clearing.
type scanScratch struct {
	cnt, touched []int32
	order        []uint32
	thr, stamp   []int32
}

func (ix *Index) newScanScratch() *scanScratch {
	nShapes := len(ix.shapes) / len(ix.rightIdx)
	return &scanScratch{
		cnt:     make([]int32, ix.nRight),
		touched: make([]int32, 0, 64),
		thr:     make([]int32, nShapes),
		stamp:   make([]int32, nShapes),
	}
}

// rowBound is an upper bound on bound(i, q, shared) over every right shape
// q, taken from left row i's columns alone: a NULL left cell adds 0, a
// token column whose left cell has a tokens adds min(shared, a)/a (0 when
// a is 0), and a numeric left cell or a column without token lists on both
// sides adds 1. Each term is at least bound's for any q — its numerator
// min(shared, a) is no smaller than min(shared, a, b) and its denominator a
// no larger than a+b−min(shared, a, b) — and the sum runs in bound's column
// order, so the bound holds bit for bit.
func (ps pairScorer) rowBound(i, shared int) float64 {
	lv, ix := ps.lv, ps.ix
	total := 0.0
	for k := range lv.cols {
		lc := &lv.cols[k]
		switch {
		case lc.null[i]:
		case lc.num[i] || lv.tok[k] == nil || ix.rTok[k] == nil:
			total++
		default:
			if a := len(lv.tok[k][i]); a > 0 {
				total += float64(min(shared, a)) / float64(a)
			}
		}
	}
	return total / float64(len(lv.cols))
}

// need returns the fewest shared blocking tokens, at least MinSharedTokens,
// that left row i must have with a right row for the pair to reach MinSim
// (rowBound is non-decreasing in the shared count), or 0 when no count up to
// the row's n blocking tokens does: then no right row can match the row.
func (ps pairScorer) need(i, n int) int {
	minSim := ps.ix.opt.MinSim
	for m := ps.ix.opt.MinSharedTokens; m <= n; m++ {
		if u := ps.rowBound(i, m); u >= minSim && u > 0 {
			return m
		}
	}
	return 0
}

// accept decides left row i's blocking candidates and appends its matches
// to out in ascending right-row order. cnt[j] is the row's shared-token
// count with right row j over the posting lists it merged, and skippedHere
// the number of its tokens whose lists it did not merge, so the true shared
// count is at most cnt[j]+skippedHere. Each candidate passes three checks,
// cheapest first: the similarity upper bound against MinSim, as an integer
// comparison with the threshold of the candidate's shape (computed once per
// row and shape the row touches), the blocking threshold (counts in the
// uncertain band prove their real shared count against the two full token
// lists), and the exact score. Only the accepted matches are sorted. accept
// resets sc.cnt[j] for every touched j.
func (ps pairScorer) accept(i, skippedHere int, sc *scanScratch, out []Match) []Match {
	ix := ps.ix
	n := len(ps.lv.block[i])
	stamp := int32(i + 1)
	minShared := int32(ix.opt.MinSharedTokens)
	thresh := max(minShared-int32(skippedHere), 1)
	start := len(out)
	for _, j := range sc.touched {
		c := sc.cnt[j]
		sc.cnt[j] = 0
		q := ix.rShape[j]
		if sc.stamp[q] != stamp {
			sc.thr[q], sc.stamp[q] = ps.threshold(i, q, n), stamp
		}
		if c+int32(skippedHere) < sc.thr[q] {
			continue
		}
		if c < thresh || (c < minShared && !sharedAtLeast(ps.lv.block[i], ix.rBlock[j], int(minShared))) {
			continue
		}
		out = ps.score(i, int(j), out)
	}
	// Ascending right-row order keeps output identical to the sequential
	// pairwise scan; right rows are distinct within a row.
	slices.SortFunc(out[start:], func(a, b Match) int { return cmp.Compare(a.R, b.R) })
	return out
}

// blockedScan reports whether token blocking applies to this left view:
// some matched column has token lists on either side — the same
// whole-column sniff tokenColumns performed.
func (ix *Index) blockedScan(lv *leftView) bool {
	for k := range lv.tok {
		if lv.tok[k] != nil || ix.rTok[k] != nil {
			return true
		}
	}
	return false
}

// scan runs candidate generation and scoring of one left view against the
// index: the back half of Similarities.
func (ix *Index) scan(lv *leftView, workers int) []Match {
	ps := pairScorer{ix: ix, lv: lv}
	blocked := ix.blockedScan(lv)
	n, nRight := lv.n, ix.nRight
	if blocked {
		lv.block = unionRows(lv.tok, n)
	}
	// scoreRange scans rows [lo, hi) with worker-local candidate state.
	scoreRange := func(lo, hi int, sc *scanScratch, out []Match) []Match {
		for i := lo; i < hi; i++ {
			if !blocked {
				for j := 0; j < nRight; j++ {
					out = ps.score(i, j, out)
				}
				continue
			}
			toks := lv.block[i]
			// Per-left-row prefix filter: a pair that must share at least
			// need distinct tokens with this row still shares one outside
			// ANY (need−1)-subset of the row's tokens, so the row can skip
			// merging its own longest need−1 posting lists — not just the
			// globally pruned stop words. Globally skipped tokens the row
			// carries count against the same budget (their postings are
			// gone for every row); the rest of it goes to the longest
			// surviving lists, which dominate this row's merge cost.
			need := ps.need(i, len(toks))
			if need == 0 {
				continue // no right row can reach MinSim
			}
			skippedHere, budget := 0, need-1
			if ix.anySkip {
				for _, tok := range toks {
					if ix.globallySkipped(tok) {
						budget--
						skippedHere++
					}
				}
			}
			if budget > 0 {
				sc.order = append(sc.order[:0], toks...)
				slices.SortFunc(sc.order, func(a, b uint32) int {
					return cmp.Compare(len(ix.postings(b)), len(ix.postings(a)))
				})
				skip := 0
				for skip < budget && skip < len(sc.order) && len(ix.postings(sc.order[skip])) >= skipFloor {
					skip++
				}
				skippedHere += skip
				toks = sc.order[skip:]
			}
			sc.touched = sc.touched[:0]
			for _, tok := range toks {
				for _, j := range ix.postings(tok) {
					if sc.cnt[j] == 0 {
						sc.touched = append(sc.touched, j)
					}
					sc.cnt[j]++
				}
			}
			out = ps.accept(i, skippedHere, sc, out)
		}
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return scoreRange(0, n, ix.newScanScratch(), nil)
	}
	// Contiguous row-range chunks scored in parallel: each chunk's matches
	// come out in the same (i, j) order the sequential scan produces, so
	// concatenating chunks in range order reproduces it exactly. The
	// shared token lists and inverted index are read-only here. Chunks
	// are much smaller than n/workers and pulled from a shared counter so
	// candidate-count skew (dense rows clustered together) cannot
	// serialize the scan on one worker.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	blocks := make([][]Match, nChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.newScanScratch()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo, hi := c*chunk, (c+1)*chunk
				if hi > n {
					hi = n
				}
				blocks[c] = scoreRange(lo, hi, sc, nil)
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
