package relation

import "math"

// CellKey is the packed hashing encoding of one cell: a kind tag plus 64
// payload bits. Two cells have equal CellKeys (against the same target
// dictionary) exactly when their Value.Key strings are equal, so hash joins,
// DISTINCT, and GROUP BY can key on integers instead of building canonical
// key strings per row. Strings encode as dictionary codes, integers (and
// integral floats, which Value.Key folds into the integer class) as their
// two's-complement bits, remaining floats as IEEE bits with NaN normalized.
type CellKey struct {
	Tag  uint8
	Bits uint64
}

// Cell-key tags. TagNumInt covers KindInt and integral floats — the same
// equivalence class Value.Key assigns them — so 2.0 hashes with 2.
const (
	TagNull uint8 = iota
	TagString
	TagNumInt
	TagNumFloat
	TagBool
)

// IsNull reports whether the key encodes NULL.
func (k CellKey) IsNull() bool { return k.Tag == TagNull }

// canonicalNaN collapses every NaN payload into one key, matching Value.Key
// (strconv renders all NaNs as "NaN").
var canonicalNaN = math.Float64bits(math.NaN())

// floatKey encodes a float64 under Value.Key's rules: integral floats within
// ±1e15 fold into the integer class, everything else keys on its bits.
func floatKey(f float64) CellKey {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15 {
		return CellKey{Tag: TagNumInt, Bits: uint64(int64(f))}
	}
	if math.IsNaN(f) {
		return CellKey{Tag: TagNumFloat, Bits: canonicalNaN}
	}
	return CellKey{Tag: TagNumFloat, Bits: math.Float64bits(f)}
}

// CellKeyOf encodes v against the target dictionary. String payloads intern
// into target so keys from different source dictionaries stay comparable.
func CellKeyOf(v Value, target *Dict) CellKey {
	switch v.kind {
	case KindNull:
		return CellKey{}
	case KindString:
		return CellKey{Tag: TagString, Bits: uint64(target.Intern(v.s))}
	case KindInt:
		return CellKey{Tag: TagNumInt, Bits: uint64(v.i)}
	case KindFloat:
		return floatKey(v.f)
	case KindBool:
		b := uint64(0)
		if v.b {
			b = 1
		}
		return CellKey{Tag: TagBool, Bits: b}
	}
	return CellKey{}
}

// Mix folds the key into a running 64-bit hash (splitmix64-style finalizer;
// callers seed h with 0 and fold each key column in order).
func (k CellKey) Mix(h uint64) uint64 {
	h ^= k.Bits + uint64(k.Tag) + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// HashRow combines one row's cell keys across key columns (keys is
// column-major: keys[c][row]).
func HashRow(keys [][]CellKey, row int) uint64 {
	h := uint64(0)
	for _, col := range keys {
		h = col[row].Mix(h)
	}
	return h
}

// RowKeysEqual reports whether rows a and b agree on every key column of
// their column-major key sets (ka[c][a] vs kb[c][b]).
func RowKeysEqual(ka [][]CellKey, a int, kb [][]CellKey, b int) bool {
	for c := range ka {
		if ka[c][a] != kb[c][b] {
			return false
		}
	}
	return true
}

// GroupTable numbers distinct key rows: At(keys, i) returns the dense id
// (0, 1, 2, … in first-appearance order) of row i's key and whether this
// call created it. Row i becomes the new id's representative, so keys must
// keep position i valid for the table's lifetime. DISTINCT, GROUP BY and
// canonicalization share it.
//
// It is a flat open-addressing table keyed on the 64-bit row-key hash:
// slots hold the hash of their chain (heads[s] < 0 = empty, linear probing,
// at most 50% load), and ids chain through next in most-recent-first order
// — chain order is irrelevant to correctness because at most one entry of a
// chain can compare equal to any probe row. It grows by rehashing.
type GroupTable struct {
	mask  uint64
	slotH []uint64 // slot → hash of its chain
	heads []int32  // slot → first id of the chain, -1 empty
	next  []int32  // id → next id with the same hash, -1 end
	idH   []uint64 // id → hash (for rehash on grow)
	reps  []int32  // id → representative row
}

// NewGroupTable sizes a table for a rows-row input. The initial size caps
// at 256 groups' worth of slots: distinct keys are usually far fewer than
// rows, and the table grows on demand anyway.
func NewGroupTable(rows int) *GroupTable {
	size := 8
	for size < 2*min(rows, 256) {
		size <<= 1
	}
	g := &GroupTable{
		mask:  uint64(size - 1),
		slotH: make([]uint64, size),
		heads: make([]int32, size),
	}
	for s := range g.heads {
		g.heads[s] = -1
	}
	return g
}

// At returns the id of row i's key, creating it when the key is new.
func (g *GroupTable) At(keys [][]CellKey, i int) (int32, bool) {
	h := HashRow(keys, i)
	s := h & g.mask
	for g.heads[s] >= 0 {
		if g.slotH[s] == h {
			for id := g.heads[s]; id >= 0; id = g.next[id] {
				if RowKeysEqual(keys, i, keys, int(g.reps[id])) {
					return id, false
				}
			}
			break
		}
		s = (s + 1) & g.mask
	}
	id := int32(len(g.reps))
	g.reps = append(g.reps, int32(i))
	g.idH = append(g.idH, h)
	g.next = append(g.next, -1)
	if 2*len(g.reps) > len(g.heads) {
		g.grow() // re-slots every id, including the new one
		return id, true
	}
	// The probe above may have stopped mid-chain; re-locate the slot for h
	// (first empty or hash-matching slot — the same one the probe visited).
	s = h & g.mask
	for g.heads[s] >= 0 && g.slotH[s] != h {
		s = (s + 1) & g.mask
	}
	g.slotH[s] = h
	g.next[id] = g.heads[s]
	g.heads[s] = id
	return id, true
}

// grow doubles the slot array and re-chains every id from its stored hash.
func (g *GroupTable) grow() {
	size := 2 * len(g.heads)
	for size < 2*len(g.reps) {
		size <<= 1
	}
	g.mask = uint64(size - 1)
	g.slotH = make([]uint64, size)
	g.heads = make([]int32, size)
	for s := range g.heads {
		g.heads[s] = -1
	}
	for id := len(g.reps) - 1; id >= 0; id-- {
		h := g.idH[id]
		s := h & g.mask
		for g.heads[s] >= 0 && g.slotH[s] != h {
			s = (s + 1) & g.mask
		}
		g.slotH[s] = h
		g.next[id] = g.heads[s]
		g.heads[s] = int32(id)
	}
}

// ColumnCellKeys appends one CellKey per row of column j to dst, encoding
// strings against target. Homogeneous typed columns encode straight off
// their arrays — string columns sharing the target dictionary copy codes
// without touching the strings at all; foreign dictionaries translate each
// distinct code once through a cache. The boxed heterogeneous fallback
// encodes per cell.
func (r *Relation) ColumnCellKeys(dst []CellKey, j int, target *Dict) []CellKey {
	c := r.cols[j]
	if c.mixed != nil {
		for i := 0; i < r.nrows; i++ {
			dst = append(dst, CellKeyOf(c.mixed[i], target))
		}
		return dst
	}
	switch c.kind {
	case KindNull:
		for i := 0; i < r.nrows; i++ {
			dst = append(dst, CellKey{})
		}
	case KindInt:
		for _, s := range c.segs {
			for off, v := range s.ints {
				if bitGet(s.nulls, off) {
					dst = append(dst, CellKey{})
					continue
				}
				dst = append(dst, CellKey{Tag: TagNumInt, Bits: uint64(v)})
			}
		}
	case KindFloat:
		for _, s := range c.segs {
			for off, v := range s.floats {
				if bitGet(s.nulls, off) {
					dst = append(dst, CellKey{})
					continue
				}
				dst = append(dst, floatKey(v))
			}
		}
	case KindBool:
		for _, s := range c.segs {
			for off, v := range s.bools {
				if bitGet(s.nulls, off) {
					dst = append(dst, CellKey{})
					continue
				}
				b := uint64(0)
				if v {
					b = 1
				}
				dst = append(dst, CellKey{Tag: TagBool, Bits: b})
			}
		}
	case KindString:
		if r.dict == target {
			for _, s := range c.segs {
				for off, v := range s.codes {
					if bitGet(s.nulls, off) {
						dst = append(dst, CellKey{})
						continue
					}
					dst = append(dst, CellKey{Tag: TagString, Bits: uint64(v)})
				}
			}
			return dst
		}
		// Foreign dictionary: translate each distinct source code once.
		tr := codeTranslator{from: r.dict, to: target}
		for _, s := range c.segs {
			for off, v := range s.codes {
				if bitGet(s.nulls, off) {
					dst = append(dst, CellKey{})
					continue
				}
				dst = append(dst, CellKey{Tag: TagString, Bits: uint64(tr.translate(v))})
			}
		}
	}
	return dst
}

// codeTranslator re-interns string codes from one dictionary into another,
// caching each distinct translation (cache[code] holds target code + 1;
// 0 means not yet translated).
type codeTranslator struct {
	from, to *Dict
	cache    []uint32
}

func (tr *codeTranslator) translate(code uint32) uint32 {
	for int(code) >= len(tr.cache) {
		tr.cache = append(tr.cache, 0)
	}
	t := tr.cache[code]
	if t == 0 {
		t = tr.to.Intern(tr.from.String(code)) + 1
		tr.cache[code] = t
	}
	return t - 1
}
