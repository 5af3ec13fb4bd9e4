package linkage

import (
	"fmt"
	"testing"

	"explain3d/internal/relation"
)

// TestMatchColumnsTypedDispatch pins the no-boxing contract: homogeneous
// INT/FLOAT/TEXT matched columns must expose typed row views with no boxed
// fallback, while bool and mixed-kind columns keep the boxed path (exact
// per-cell kind fidelity).
func TestMatchColumnsTypedDispatch(t *testing.T) {
	r := relation.New("t", "i", "f", "s", "b", "m")
	r.Append(1, 0.5, "alpha beta", true, 7)
	r.Append(nil, nil, nil, nil, "seven")
	r.Append(3, 1.5, "gamma", false, nil)
	cols := matchColumns(r, []int{0, 1, 2, 3, 4})
	for k, wantBoxed := range []bool{false, false, false, true, true} {
		if got := cols[k].boxed != nil; got != wantBoxed {
			t.Fatalf("column %d: boxed=%v, want %v", k, got, wantBoxed)
		}
	}
	// Typed views must agree with the boxed semantics cell by cell.
	for k := 0; k < 5; k++ {
		for i := 0; i < r.Len(); i++ {
			v := r.At(i, k)
			mc := &cols[k]
			if mc.null[i] != v.IsNull() {
				t.Fatalf("col %d row %d: null=%v, value %v", k, i, mc.null[i], v)
			}
			if v.IsNull() {
				continue
			}
			if mc.num[i] != v.IsNumeric() {
				t.Fatalf("col %d row %d: num=%v, value %v", k, i, mc.num[i], v)
			}
			if v.IsNumeric() {
				f, _ := v.AsFloat()
				if mc.f[i] != f {
					t.Fatalf("col %d row %d: f=%v, want %v", k, i, mc.f[i], f)
				}
			}
			if mc.value(i) != v {
				t.Fatalf("col %d row %d: value()=%v, want %v", k, i, mc.value(i), v)
			}
		}
	}
}

// TestSimilaritiesAllocsRegression bounds the allocation count of a full
// Similarities run on typed numeric+string columns. The typed matched-column
// dispatch builds O(columns) row views and the numeric scoring path boxes
// nothing per pair, so the total stays small and row-count-independent
// outside the output slice; re-introducing per-row or per-pair Value
// boxing into the hot loop would blow the bound.
func TestSimilaritiesAllocsRegression(t *testing.T) {
	const rows = 400
	dict := relation.NewDict()
	left := relation.NewWithDict(dict, "l", "name", "qty", "score")
	right := relation.NewWithDict(dict, "r", "name", "qty", "score")
	for i := 0; i < rows; i++ {
		name := fmt.Sprintf("entity %d shared", i%37)
		left.Append(name, i%11, float64(i%13)*0.25)
		right.Append(name, (i+1)%11, float64((i+2)%13)*0.25)
	}
	idx := []int{0, 1, 2}
	opt := DefaultPairOptions()
	warm, err := similarities(left, right, idx, idx, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) == 0 {
		t.Fatal("workload produced no matches; regression would be vacuous")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := similarities(left, right, idx, idx, opt, 1); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / rows
	// Measured ~2.3k allocations total (tokenization caches, posting
	// lists, match output) for 400 rows; per-pair boxing would add one per
	// scored candidate (tens of thousands). Generous headroom keeps the
	// bound non-flaky.
	if perRow > 20 {
		t.Fatalf("Similarities allocations = %.0f total, %.1f per row; want ≤ 20 per row", allocs, perRow)
	}
}
