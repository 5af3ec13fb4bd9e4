package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildAt materializes the same row stream into a fresh relation chunked at
// the given segment size. The caller restores the package segment size.
func buildAt(segRows int, rows [][]Value) *Relation {
	SetSegmentSize(segRows)
	r := New("T", "a", "b", "c")
	for _, row := range rows {
		r.Append(row[0], row[1], row[2])
	}
	return r
}

// TestSegmentSizeEquivalence is the storage acceptance property: a relation
// chunked at any segment size — including the pathological one-row-per-
// segment layout and sizes that leave ragged final segments — must be
// observationally identical to the default layout through every read path:
// cell access, packed key extraction, accessors, gather, and select.
func TestSegmentSizeEquivalence(t *testing.T) {
	orig := SegmentSize()
	defer SetSegmentSize(orig)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		nrows := rng.Intn(90)
		rows := make([][]Value, nrows)
		for i := range rows {
			rows[i] = []Value{randomKeyValue(rng), randomKeyValue(rng), randomKeyValue(rng)}
		}
		var sel32 []int32
		for i := 0; i < nrows; i++ {
			if rng.Intn(2) == 0 {
				sel32 = append(sel32, int32(i))
			}
		}
		ref := buildAt(defaultSegmentRows, rows)
		refGather := ref.Gather(sel32)
		d := NewDict()
		refKeys := make([][]CellKey, 3)
		for j := 0; j < 3; j++ {
			refKeys[j] = ref.ColumnCellKeys(nil, j, d)
		}
		for _, segRows := range []int{1, 7, 64} {
			got := buildAt(segRows, rows)
			label := fmt.Sprintf("trial %d segRows %d", trial, segRows)
			if got.Len() != ref.Len() {
				t.Fatalf("%s: %d rows, want %d", label, got.Len(), ref.Len())
			}
			for j := 0; j < 3; j++ {
				acc := got.Accessor(j)
				keys := got.ColumnCellKeys(nil, j, d)
				for i := 0; i < nrows; i++ {
					if gk, rk := got.At(i, j).Key(), ref.At(i, j).Key(); gk != rk {
						t.Fatalf("%s: At(%d,%d) = %q, want %q", label, i, j, gk, rk)
					}
					if ak := acc(i).Key(); ak != ref.At(i, j).Key() {
						t.Fatalf("%s: Accessor(%d)(%d) = %q, want %q", label, j, i, ak, ref.At(i, j).Key())
					}
					if keys[i] != refKeys[j][i] {
						t.Fatalf("%s: ColumnCellKeys(%d)[%d] = %v, want %v", label, j, i, keys[i], refKeys[j][i])
					}
				}
			}
			g := got.Gather(sel32)
			for i := 0; i < g.Len(); i++ {
				for j := 0; j < 3; j++ {
					if gk, rk := g.At(i, j).Key(), refGather.At(i, j).Key(); gk != rk {
						t.Fatalf("%s: Gather cell (%d,%d) = %q, want %q", label, i, j, gk, rk)
					}
				}
			}
		}
	}
}

// TestSegmentViewsRoundTrip pins the zero-copy segment views against the
// boxed read path on homogeneous columns at a ragged segment size.
func TestSegmentViewsRoundTrip(t *testing.T) {
	orig := SegmentSize()
	defer SetSegmentSize(orig)
	SetSegmentSize(5)
	r := New("T", "i", "f", "s")
	for k := 0; k < 23; k++ {
		if k%7 == 3 {
			r.Append(nil, nil, nil)
			continue
		}
		r.Append(int64(k*3), float64(k)+0.25, fmt.Sprintf("w%d", k%6))
	}
	iSegs, iNulls, ok := r.IntSegments(0)
	if !ok {
		t.Fatal("IntSegments refused a homogeneous INT column")
	}
	fSegs, fNulls, ok := r.FloatSegments(1)
	if !ok {
		t.Fatal("FloatSegments refused a homogeneous FLOAT column")
	}
	sSegs, sNulls, ok := r.StringSegments(2)
	if !ok {
		t.Fatal("StringSegments refused a homogeneous TEXT column")
	}
	L := r.SegmentLen(0)
	if L != 5 {
		t.Fatalf("SegmentLen = %d, want 5", L)
	}
	for i := 0; i < r.Len(); i++ {
		s, off := i/L, i%L
		if null := NullAt(iNulls[s], off); null != r.At(i, 0).IsNull() {
			t.Fatalf("row %d: int null bit %v, want %v", i, null, r.At(i, 0).IsNull())
		}
		if !r.At(i, 0).IsNull() {
			if iSegs[s][off] != r.At(i, 0).IntVal() {
				t.Fatalf("row %d: int seg value %d, want %d", i, iSegs[s][off], r.At(i, 0).IntVal())
			}
			if fSegs[s][off] != r.At(i, 1).FloatVal() {
				t.Fatalf("row %d: float seg value %v, want %v", i, fSegs[s][off], r.At(i, 1).FloatVal())
			}
			if r.Dict().String(sSegs[s][off]) != r.At(i, 2).Str() {
				t.Fatalf("row %d: string seg code %d decodes to %q, want %q",
					i, sSegs[s][off], r.Dict().String(sSegs[s][off]), r.At(i, 2).Str())
			}
		}
		if NullAt(fNulls[s], off) != r.At(i, 1).IsNull() || NullAt(sNulls[s], off) != r.At(i, 2).IsNull() {
			t.Fatalf("row %d: float/string null bits diverged", i)
		}
	}
}
