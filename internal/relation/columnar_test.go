package relation

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestDictInternAndTokens(t *testing.T) {
	d := NewDict()
	a := d.Intern("Computer Science")
	b := d.Intern("Computer Science")
	if a != b {
		t.Fatalf("same string interned to %d and %d", a, b)
	}
	if d.String(a) != "Computer Science" {
		t.Fatalf("String(%d) = %q", a, d.String(a))
	}
	// Interning stores the string only: its tokens are not interned
	// (record linkage tokenizes into its own token space).
	if _, ok := d.Lookup("computer"); ok {
		t.Fatal("token string interned alongside its string")
	}
	if got := d.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestDictParseValueCaches(t *testing.T) {
	d := NewDict()
	v1 := d.ParseValue("42")
	if v1.Kind() != KindInt || v1.IntVal() != 42 {
		t.Fatalf("ParseValue(42) = %v", v1)
	}
	v2 := d.ParseValue("Business")
	v3 := d.ParseValue("Business")
	if v2.Str() != "Business" || v3.Str() != "Business" {
		t.Fatalf("cached string parse = %v / %v", v2, v3)
	}
	if d.ParseValue("").Kind() != KindNull {
		t.Fatal("empty cell should parse to NULL")
	}
}

// TestDictConcurrentReadersAndWriters runs String readers against
// Intern/ParseValue writers on one dictionary — the serving pattern: a
// dataset's dictionary is read by every request while queries and deltas
// keep interning fresh strings. Run under -race.
func TestDictConcurrentReadersAndWriters(t *testing.T) {
	d := NewDict()
	words := make([]string, 200)
	codes := make([]uint32, len(words))
	for i := range words {
		words[i] = fmt.Sprintf("token soup number %d", i)
		codes[i] = d.Intern(words[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j := (i + w) % len(codes)
				if got := d.String(codes[j]); got != words[j] {
					t.Errorf("String(%d) = %q, want %q", codes[j], got, words[j])
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := fmt.Sprintf("writer w%d round r%d", w, i)
				if c := d.Intern(s); d.String(c) != s {
					t.Errorf("String(Intern(%q)) = %q", s, d.String(c))
					return
				}
				if v := d.ParseValue(fmt.Sprintf("%d.5", i)); v.Kind() != KindFloat {
					t.Errorf("ParseValue(%d.5) kind = %v", i, v.Kind())
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, w := range words {
		if c, ok := d.Lookup(w); !ok || c != codes[i] {
			t.Fatalf("Lookup(%q) = %d,%v, want %d,true", w, c, ok, codes[i])
		}
	}
}

// TestColumnMixedKinds drives a column through the heterogeneous fallback:
// kind fidelity, NULLs, and updates must all survive the promotion.
func TestColumnMixedKinds(t *testing.T) {
	r := New("t", "x")
	r.Append(int64(7))
	r.Append(nil)
	r.Append("N/A")
	r.Append(3.5)
	r.Append(true)
	want := []Value{Int(7), Null(), String("N/A"), Float(3.5), Bool(true)}
	for i, w := range want {
		if got := r.At(i, 0); !got.Identical(w) && !(got.IsNull() && w.IsNull()) {
			t.Fatalf("At(%d) = %v (kind %v), want %v (kind %v)", i, got, got.Kind(), w, w.Kind())
		}
		if r.At(i, 0).Kind() != w.Kind() {
			t.Fatalf("At(%d) kind = %v, want %v", i, r.At(i, 0).Kind(), w.Kind())
		}
	}
	r.Set(0, 0, String("now a string"))
	if r.At(0, 0).Str() != "now a string" {
		t.Fatalf("Set after promotion = %v", r.At(0, 0))
	}
}

// TestGatherStoresLikeAppendRow pins that Gather, Select and ConcatGather
// store each column exactly as AppendRow would store the gathered cells: a
// boxed column whose gathered cells share one kind comes back typed, and a
// typed column whose gathered cells are all NULL comes back untyped.
func TestGatherStoresLikeAppendRow(t *testing.T) {
	r := New("t", "mixed", "text")
	r.Append(int64(1), "a")
	r.Append("x", nil)
	r.Append(int64(3), nil)
	r.Append(nil, "b")
	storage := func(r *Relation, j int) string {
		_, _, isInt := r.IntSegments(j)
		_, _, isString := r.StringSegments(j)
		return fmt.Sprintf("int=%v string=%v numericOnly=%v", isInt, isString, r.NumericOnly(j))
	}
	for _, sel := range [][]int32{{0, 2, 3}, {1, 2}, {0, 1}, {}, {3, 3, 0}} {
		want := New("t", "mixed", "text")
		rows := make([]int, len(sel))
		for k, i := range sel {
			want.AppendRow(r.Row(int(i)))
			rows[k] = int(i)
		}
		joined := ConcatGather("j", r.Schema.Concat(r.Schema), r, sel, r, sel)
		for label, got := range map[string]*Relation{"Gather": r.Gather(sel), "Select": r.Select(rows), "ConcatGather": joined} {
			for j := 0; j < got.Schema.Len(); j++ {
				w := j % 2
				if g, ws := storage(got, j), storage(want, w); g != ws {
					t.Fatalf("%s%v column %d: %s, AppendRow gives %s", label, sel, j, g, ws)
				}
				for i := 0; i < got.Len(); i++ {
					if g, wv := got.At(i, j), want.At(i, w); g.Kind() != wv.Kind() || g.Key() != wv.Key() {
						t.Fatalf("%s%v cell (%d,%d) = %v, want %v", label, sel, i, j, g, wv)
					}
				}
			}
		}
	}
}

// TestColumnAllNullPrefix covers kind establishment after a NULL run and
// NULL overwrites of typed cells.
func TestColumnAllNullPrefix(t *testing.T) {
	r := New("t", "x")
	for i := 0; i < 70; i++ { // cross a bitmap word boundary
		r.Append(nil)
	}
	r.Append(int64(9))
	for i := 0; i < 70; i++ {
		if !r.At(i, 0).IsNull() {
			t.Fatalf("row %d should be NULL", i)
		}
	}
	if r.At(70, 0).IntVal() != 9 {
		t.Fatalf("At(70) = %v", r.At(70, 0))
	}
	r.Set(70, 0, Null())
	if !r.At(70, 0).IsNull() {
		t.Fatal("Set(NULL) should null the cell")
	}
	r.Set(3, 0, Int(5))
	if r.At(3, 0).IntVal() != 5 {
		t.Fatalf("Set into NULL prefix = %v", r.At(3, 0))
	}
}

func TestSelectAndWithSchema(t *testing.T) {
	r := New("t", "a", "b")
	for i := 0; i < 10; i++ {
		if i%3 == 0 {
			r.Append(nil, fmt.Sprintf("s%d", i))
		} else {
			r.Append(int64(i), fmt.Sprintf("s%d", i))
		}
	}
	sel := r.Select([]int{1, 4, 9, 3})
	if sel.Len() != 4 {
		t.Fatalf("Select len = %d", sel.Len())
	}
	wantA := []Value{Int(1), Int(4), Null(), Null()}
	for k, w := range wantA {
		got := sel.At(k, 0)
		if w.IsNull() != got.IsNull() || (!w.IsNull() && got.IntVal() != w.IntVal()) {
			t.Fatalf("Select row %d col a = %v, want %v", k, got, w)
		}
	}
	if sel.At(2, 1).Str() != "s9" {
		t.Fatalf("Select row 2 col b = %v", sel.At(2, 1))
	}
	if sel.Dict() != r.Dict() {
		t.Fatal("Select must share the dictionary")
	}

	view := r.WithSchema("v", r.Schema.WithQualifier("v"))
	if view.Len() != r.Len() || view.At(5, 1).Str() != "s5" {
		t.Fatalf("view = %d rows, At(5,1)=%v", view.Len(), view.At(5, 1))
	}
	if i, err := view.Schema.Index("v.b"); err != nil || i != 1 {
		t.Fatalf("view schema Index(v.b) = (%d, %v)", i, err)
	}
}

// TestRowViewEquivalence is the tentpole's ground truth: a columnar
// relation's row view must reproduce the exact cells that were appended,
// for random kind mixes, at every position.
func TestRowViewEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cols := []string{"a", "b", "c", "d"}
	r := New("t", cols...)
	var shadow [][]Value
	vocab := []string{"alpha", "beta", "gamma delta", "", "N/A", "x9"}
	for i := 0; i < 500; i++ {
		row := make(Tuple, len(cols))
		for j := range row {
			switch rng.Intn(6) {
			case 0:
				row[j] = Null()
			case 1:
				row[j] = Int(int64(rng.Intn(50)))
			case 2:
				row[j] = Float(rng.Float64() * 10)
			case 3:
				row[j] = Bool(rng.Intn(2) == 0)
			default:
				row[j] = String(vocab[rng.Intn(len(vocab))])
			}
		}
		r.AppendRow(row)
		shadow = append(shadow, row.Clone())
	}
	var buf Tuple
	for i := range shadow {
		buf = r.RowInto(buf, i)
		for j, w := range shadow[i] {
			got := buf[j]
			if got.Kind() != w.Kind() {
				t.Fatalf("cell (%d,%d) kind = %v, want %v", i, j, got.Kind(), w.Kind())
			}
			if !w.IsNull() && !got.Identical(w) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, got, w)
			}
		}
	}
}

// TestReadCSVRepeatedValueAllocs is the allocation-count regression for the
// interner-routed CSV path: a column of overwhelmingly repeated values must
// not allocate per row beyond the CSV reader's own per-record cost.
func TestReadCSVRepeatedValueAllocs(t *testing.T) {
	const rows = 1000
	var b strings.Builder
	b.WriteString("dept,degree,count\n")
	for i := 0; i < rows; i++ {
		b.WriteString("Computer Science,Bachelor of Science,42\n")
	}
	in := b.String()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadCSV("t", strings.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	perRow := allocs / rows
	// The row-major reader allocated a Tuple plus parsed cells for every
	// row (~6+/row). The interner-routed columnar path leaves only the CSV
	// reader's record bookkeeping; give it headroom to stay non-flaky.
	if perRow > 4 {
		t.Fatalf("ReadCSV allocations = %.1f total, %.2f per row; want ≤ 4 per row", allocs, perRow)
	}
}
