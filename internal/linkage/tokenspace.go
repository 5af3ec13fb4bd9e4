package linkage

import (
	"slices"
	"sort"
	"sync"

	"explain3d/internal/relation"
)

// tokenSpace maps token strings into one dense joint id space shared by
// both sides of a linkage run, so posting lists and Jaccard merges work on
// plain integers. Each distinct cell string is tokenized once per token-
// column build and its words interned straight into the joint space; no
// dictionary, per-call or long-lived, stores token lists.
//
// Joint-id interning is mutex-guarded so concurrent scans against one Index
// can intern their left sides' tokens; the numeric ids then depend on
// goroutine interleaving, but every consumer (posting lists, shared-token
// counts, sorted-merge Jaccard) is invariant under relabeling, so match
// output is unchanged.
type tokenSpace struct {
	mu  sync.Mutex
	ids map[string]uint32 // guarded by mu
	n   uint32            // guarded by mu
}

// dictCache holds one token-column build's translation state. Each build
// owns its own cache — even when several share a Dict — so concurrent
// scans never contend on anything but the joint intern map.
type dictCache struct {
	d       *relation.Dict
	strs    []string   // snapshot of d's string table
	rowToks [][]uint32 // dict string code → sorted joint token ids (nil = unset)
}

func newTokenSpace() *tokenSpace {
	//lint:ignore guarded constructor: the fresh tokenSpace is not shared until returned
	return &tokenSpace{ids: make(map[string]uint32)}
}

func (ts *tokenSpace) size() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return int(ts.n)
}

// internWords returns the sorted distinct joint ids of a string's words,
// interning new words under one lock acquisition for the whole string. The
// result is never nil, so an empty list caches as computed.
func (ts *tokenSpace) internWords(words []string) []uint32 {
	out := make([]uint32, len(words))
	ts.mu.Lock()
	for i, w := range words {
		id, ok := ts.ids[w]
		if !ok {
			id = ts.n
			ts.ids[w] = id
			ts.n++
		}
		out[i] = id
	}
	ts.mu.Unlock()
	slices.Sort(out)
	return slices.Compact(out)
}

// translate returns the sorted joint token ids of the dictionary string
// behind code, tokenizing it once per distinct code per cache.
//
//lint:view
func (ts *tokenSpace) translate(dc *dictCache, code uint32) []uint32 {
	if int(code) >= len(dc.strs) {
		//lint:ignore viewalias the dictionary is append-only, so a snapshot's entries never change, and the cache lives for one token-column build
		dc.strs = dc.d.Strings()
	}
	if int(code) >= len(dc.rowToks) {
		dc.rowToks = append(dc.rowToks, make([][]uint32, len(dc.strs)-len(dc.rowToks))...)
	}
	if t := dc.rowToks[code]; t != nil {
		return t
	}
	t := ts.internWords(Tokenize(dc.strs[code]))
	dc.rowToks[code] = t
	return t
}

// tokenColumns builds the per-row sorted token-id lists of every matched
// column. Entry k is nil when column idx[k] holds only numeric (or NULL)
// values — numeric similarity applies there, exactly as the row-major
// implementation decided. Per-row entries are nil for NULL cells.
func (ts *tokenSpace) tokenColumns(r *relation.Relation, idx []int) [][][]uint32 {
	out := make([][][]uint32, len(idx))
	dc := &dictCache{d: r.Dict()}
	for k, c := range idx {
		if r.NumericOnly(c) {
			continue
		}
		rows := make([][]uint32, r.Len())
		if segs, nullSegs, ok := r.StringSegments(c); ok {
			base := 0
			for s, codes := range segs {
				for i, code := range codes {
					if !relation.NullAt(nullSegs[s], i) {
						//lint:ignore viewalias blocking lists are shared read-only by design: every consumer merges them without mutating
						rows[base+i] = ts.translate(dc, code)
					}
				}
				base += len(codes)
			}
		} else {
			// Bool and mixed-kind columns tokenize each cell's rendering,
			// which has no dictionary code to cache under; the relation's
			// dictionary is not written to.
			for i := range rows {
				if v := r.At(i, c); !v.IsNull() {
					rows[i] = ts.internWords(Tokenize(v.String()))
				}
			}
		}
		out[k] = rows
	}
	return out
}

// unionRows merges each row's per-column token lists into one sorted
// distinct blocking token list per row. Rows covered by a single tokenized
// column reuse its slice without copying.
func unionRows(cols [][][]uint32, n int) [][]uint32 {
	out := make([][]uint32, n)
	var scratch []uint32
	for i := 0; i < n; i++ {
		var single []uint32
		count, lists := 0, 0
		for k := range cols {
			if cols[k] == nil || len(cols[k][i]) == 0 {
				continue
			}
			lists++
			count += len(cols[k][i])
			single = cols[k][i]
		}
		if lists <= 1 {
			out[i] = single
			continue
		}
		scratch = scratch[:0]
		for k := range cols {
			if cols[k] != nil {
				scratch = append(scratch, cols[k][i]...)
			}
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
		merged := make([]uint32, 0, count)
		for _, t := range scratch {
			if len(merged) == 0 || merged[len(merged)-1] != t {
				merged = append(merged, t)
			}
		}
		out[i] = merged
	}
	return out
}
