package linkage

import (
	"sort"
	"sync"

	"explain3d/internal/relation"
)

// tokenSpace maps token strings — possibly interned in different
// dictionaries on the two sides of a linkage run — into one dense joint id
// space, so posting lists and Jaccard merges work on plain integers. When
// both relations share a dictionary (the common case: core builds its two
// virtual-column relations against one Dict), translation degenerates to a
// cached array lookup per distinct string.
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

// dictCache holds per-dictionary translation state. Each token-column build
// owns its own cache — even when several share a Dict — so concurrent scans
// never contend on anything but the joint intern map.
type dictCache struct {
	d       *relation.Dict
	tokMap  []uint32   // dict token code → joint id + 1 (0 = unset)
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

func (ts *tokenSpace) intern(s string) uint32 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if id, ok := ts.ids[s]; ok {
		return id
	}
	id := ts.n
	ts.ids[s] = id
	ts.n++
	return id
}

// translate returns the sorted joint token ids of the dict string behind
// code. Tokenization runs once per distinct string (cached in the Dict);
// the joint-space translation is also cached per distinct string.
//
//lint:view
func (ts *tokenSpace) translate(dc *dictCache, code uint32) []uint32 {
	for int(code) >= len(dc.rowToks) {
		dc.rowToks = append(dc.rowToks, nil)
	}
	if t := dc.rowToks[code]; t != nil {
		return t
	}
	dictToks := dc.d.Tokens(code)
	out := make([]uint32, len(dictToks))
	for i, t := range dictToks {
		for int(t) >= len(dc.tokMap) {
			dc.tokMap = append(dc.tokMap, 0)
		}
		j := dc.tokMap[t]
		if j == 0 {
			j = ts.intern(dc.d.String(t)) + 1
			dc.tokMap[t] = j
		}
		out[i] = j - 1
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	dc.rowToks[code] = out
	return out
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
		for i := 0; i < r.Len(); i++ {
			code, ok := r.CellCode(i, c)
			if !ok {
				continue // NULL
			}
			//lint:ignore viewalias blocking lists are shared read-only by design: every consumer merges them without mutating, and the cache outlives them all
			rows[i] = ts.translate(dc, code)
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
