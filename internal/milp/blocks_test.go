package milp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refBlocks is the map-grouped block decomposition blocks replaced: union
// over each row's terms, group variables by root in a map, order groups by
// smallest member.
func refBlocks(m *Model, disable bool) [][]int {
	n := len(m.vars)
	if n == 0 {
		return nil
	}
	if disable {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, r := range m.rows {
		for i := 1; i < len(r.terms); i++ {
			ra, rb := find(int(r.terms[0].Var)), find(int(r.terms[i].Var))
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	groups := make(map[int][]int)
	for v := 0; v < n; v++ {
		groups[find(v)] = append(groups[find(v)], v)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// refSubModel is the extraction subModel replaced: a map from global to
// local index, and a scan over every row of the model keeping the non-empty
// rows whose first variable is in the block.
func refSubModel(m *Model, vars []int) (*Model, []int) {
	local := make(map[int]int, len(vars))
	mapping := make([]int, len(vars))
	sub := NewModel(m.Name, m.sense)
	for i, gv := range vars {
		local[gv] = i
		mapping[i] = gv
		sub.vars = append(sub.vars, m.vars[gv])
	}
	for _, r := range m.rows {
		if len(r.terms) == 0 {
			continue
		}
		if _, ok := local[int(r.terms[0].Var)]; !ok {
			continue
		}
		terms := make([]Term, len(r.terms))
		for i, t := range r.terms {
			terms[i] = Term{Var: Var(local[int(t.Var)]), Coef: t.Coef}
		}
		sub.rows = append(sub.rows, rowData{name: r.name, terms: terms, sense: r.sense, rhs: r.rhs})
	}
	return sub, mapping
}

// randomBlockModel draws a model with empty rows (terms that cancel),
// variables no row references, and rows listing a block's larger variables
// before its smallest one.
func randomBlockModel(rng *rand.Rand) *Model {
	m := NewModel(fmt.Sprintf("rand%d", rng.Intn(1000)), Sense(rng.Intn(2)))
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		lb := float64(rng.Intn(3) - 1)
		v := m.AddVar(lb, lb+float64(1+rng.Intn(4)), VarType(rng.Intn(3)), fmt.Sprintf("v%d", i))
		m.SetObjCoef(v, float64(rng.Intn(7)-3))
	}
	if n == 0 {
		return m
	}
	// Rows touch only a window of variables so the model splits into
	// several blocks and some variables stay row-less.
	window := 1 + rng.Intn(n)
	for r := rng.Intn(3 * n); r > 0; r-- {
		base := rng.Intn(n - window + 1)
		var terms []Term
		switch rng.Intn(6) {
		case 0: // cancels to an empty row
			v := Var(base + rng.Intn(window))
			terms = []Term{{v, 2}, {v, -2}}
		default:
			for k := 1 + rng.Intn(4); k > 0; k-- {
				terms = append(terms, Term{Var(base + rng.Intn(window)), float64(rng.Intn(5) - 2)})
			}
		}
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		m.AddConstr(terms, ConstrSense(rng.Intn(3)), float64(rng.Intn(9)-4), fmt.Sprintf("r%d", r))
	}
	return m
}

// TestBlocksMatchReference checks that the row-bucketed blocks and
// subModel reproduce the rescanning extraction exactly: block order,
// mapping, and each sub-model's variables and rows (names, senses,
// right-hand sides, terms in order).
func TestBlocksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	firstNotSmallest, emptyRows, rowless := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		m := randomBlockModel(rng)
		used := make([]bool, len(m.vars))
		for _, r := range m.rows {
			if len(r.terms) == 0 {
				emptyRows++
			}
			for _, tm := range r.terms {
				used[tm.Var] = true
				if tm.Var < r.terms[0].Var {
					firstNotSmallest++
				}
			}
		}
		for _, u := range used {
			if !u {
				rowless++
			}
		}
		for _, disable := range []bool{false, true} {
			want := refBlocks(m, disable)
			got := m.blocks(disable)
			if len(got) != len(want) {
				t.Fatalf("trial %d disable=%v: %d blocks, want %d", trial, disable, len(got), len(want))
			}
			local := make([]int, len(m.vars))
			for b := range want {
				wsub, wmap := refSubModel(m, want[b])
				gsub := m.subModel(got[b], local, new(Model))
				where := fmt.Sprintf("trial %d disable=%v block %d", trial, disable, b)
				if fmt.Sprint(got[b].vars) != fmt.Sprint(wmap) {
					t.Fatalf("%s: mapping %v, want %v", where, got[b].vars, wmap)
				}
				sameModel(t, where, gsub, wsub)
			}
		}
	}
	if firstNotSmallest == 0 || emptyRows == 0 || rowless == 0 {
		t.Fatalf("random models miss a case: %d rows led by a larger variable, %d empty rows, %d row-less variables",
			firstNotSmallest, emptyRows, rowless)
	}
}

func sameModel(t *testing.T, where string, got, want *Model) {
	t.Helper()
	if got.Name != want.Name || got.sense != want.sense || got.objConst != want.objConst {
		t.Fatalf("%s: header %q/%v/%g, want %q/%v/%g", where, got.Name, got.sense, got.objConst, want.Name, want.sense, want.objConst)
	}
	if len(got.vars) != len(want.vars) || len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d vars %d rows, want %d vars %d rows", where, len(got.vars), len(got.rows), len(want.vars), len(want.rows))
	}
	for i := range want.vars {
		if got.vars[i] != want.vars[i] {
			t.Fatalf("%s: var %d = %+v, want %+v", where, i, got.vars[i], want.vars[i])
		}
	}
	for i, wr := range want.rows {
		gr := got.rows[i]
		if gr.name != wr.name || gr.sense != wr.sense || gr.rhs != wr.rhs || fmt.Sprint(gr.terms) != fmt.Sprint(wr.terms) {
			t.Fatalf("%s: row %d = %+v, want %+v", where, i, gr, wr)
		}
	}
}

// refMergeTerms is the map-based merge every row used to take.
func refMergeTerms(terms []Term) []Term {
	if len(terms) <= 1 {
		return append([]Term(nil), terms...)
	}
	acc := make(map[Var]float64, len(terms))
	order := make([]Var, 0, len(terms))
	for _, t := range terms {
		if _, seen := acc[t.Var]; !seen {
			order = append(order, t.Var)
		}
		acc[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if acc[v] != 0 {
			out = append(out, Term{Var: v, Coef: acc[v]})
		}
	}
	return out
}

// TestMergeTermsMatchesMap compares mergeTerms bit for bit with the map
// merge on random rows on both sides of mergeScanMax, with repeated
// variables and coefficients that cancel to exactly 0 (and 0.1+0.2-0.3,
// which does not).
func TestMergeTermsMatchesMap(t *testing.T) {
	coefs := []float64{-2, -1, -0.5, 0.5, 1, 2, 0.1, 0.2, -0.3, 1e-300, -1e-300}
	rng := rand.New(rand.NewSource(7))
	cancelled := 0
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(3 * mergeScanMax)
		nv := 1 + rng.Intn(n+1)
		terms := make([]Term, n)
		for i := range terms {
			terms[i] = Term{Var(rng.Intn(nv)), coefs[rng.Intn(len(coefs))]}
		}
		want := refMergeTerms(terms)
		got := mergeTerms(nil, terms)
		if len(got) != len(want) {
			t.Fatalf("trial %d %v: got %v, want %v", trial, terms, got, want)
		}
		for i := range want {
			if got[i].Var != want[i].Var || math.Float64bits(got[i].Coef) != math.Float64bits(want[i].Coef) {
				t.Fatalf("trial %d %v: got %v, want %v", trial, terms, got, want)
			}
		}
		distinct := map[Var]bool{}
		for _, tm := range terms {
			distinct[tm.Var] = true
		}
		if n > 1 && len(want) < len(distinct) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no trial cancelled a variable to exactly 0")
	}
	// A lone zero-coefficient term is kept, not dropped.
	if got := mergeTerms(nil, []Term{{3, 0}}); len(got) != 1 || got[0] != (Term{3, 0}) {
		t.Fatalf("mergeTerms({3, 0}) = %v, want the term kept", got)
	}
	if got := mergeTerms(nil, []Term{{3, 0}, {4, 1}}); len(got) != 1 || got[0] != (Term{4, 1}) {
		t.Fatalf("mergeTerms({3, 0}, {4, 1}) = %v, want the zero term dropped", got)
	}
}
