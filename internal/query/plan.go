package query

import (
	"fmt"
	"strings"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// The compiled, columnar engine. Every operator follows the same shape:
// expressions compile once against their source relation (compile.go),
// filters produce []int32 selection vectors gathered through typed column
// segments, and joins / DISTINCT / GROUP BY key on packed (kind, code/bits)
// CellKeys instead of canonical key strings. The row-at-a-time engine this
// replaced lives in reference.go and must stay byte-identical in output.

// Run evaluates a SELECT against the database and returns the result
// relation. Aggregate queries return a single-row relation.
func Run(sel *sqlparse.Select, db *relation.Database) (*relation.Relation, error) {
	ev := newEvaluator(db)
	src, err := buildSource(ev, sel, db)
	if err != nil {
		return nil, err
	}
	return project(ev, sel, src)
}

// RunScalar evaluates an aggregate query and returns its scalar answer.
func RunScalar(sel *sqlparse.Select, db *relation.Database) (relation.Value, error) {
	if sel.Aggregate() == nil {
		return relation.Null(), fmt.Errorf("query: %q is not a scalar aggregate query", sel.String())
	}
	res, err := Run(sel, db)
	if err != nil {
		return relation.Null(), err
	}
	return scalarResult(res)
}

// scalarResult returns an aggregate query's answer from its one-row result.
func scalarResult(res *relation.Relation) (relation.Value, error) {
	if res.Len() != 1 || res.Schema.Len() < 1 {
		return relation.Null(), fmt.Errorf("query: aggregate query returned %d rows", res.Len())
	}
	return res.At(0, 0), nil
}

// buildSource materializes σ_c(X): the joined FROM sources with the WHERE
// clause fully applied. Single-table conjuncts are pushed below joins and
// equality conjuncts across sides become code-keyed hash joins.
func buildSource(ev *evaluator, sel *sqlparse.Select, db *relation.Database) (*relation.Relation, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("query: empty FROM clause")
	}
	pending := splitConjuncts(sel.Where)
	applied := make([]bool, len(pending))

	cur, err := loadRef(ev, sel.From[0], db)
	if err != nil {
		return nil, err
	}
	if cur, err = applyResolvable(ev, cur, pending, applied); err != nil {
		return nil, err
	}

	for _, ref := range sel.From[1:] {
		next, err := loadRef(ev, ref, db)
		if err != nil {
			return nil, err
		}
		// Push single-side conjuncts into the right side before joining.
		if next, err = applyResolvable(ev, next, pending, applied); err != nil {
			return nil, err
		}
		// Gather join conditions: the explicit ON clause plus WHERE
		// conjuncts that become resolvable once both sides are visible.
		joined := cur.Schema.Concat(next.Schema)
		var conds []sqlparse.Expr
		conds = append(conds, splitConjuncts(ref.On)...)
		for i, c := range pending {
			if applied[i] {
				continue
			}
			if !resolvable(c, cur.Schema) && !resolvable(c, next.Schema) && resolvable(c, joined) {
				conds = append(conds, c)
				applied[i] = true
			}
		}
		cur, err = join(ev, cur, next, conds)
		if err != nil {
			return nil, err
		}
		if cur, err = applyResolvable(ev, cur, pending, applied); err != nil {
			return nil, err
		}
	}
	for i, c := range pending {
		if !applied[i] {
			return nil, fmt.Errorf("query: WHERE conjunct %s references unknown columns (schema %s)", c.String(), cur.Schema)
		}
	}
	return cur, nil
}

// applyResolvable filters cur by every pending conjunct that resolves
// against its schema, marking them applied. The conjuncts fuse into one
// selection-vector pass: every resolvable predicate compiles up front, rows
// evaluate them in conjunct order with short-circuiting (a row rejected by
// conjunct k never sees conjunct k+1, exactly like the former
// filter-then-materialize cascade), and one Gather materializes the
// survivors — instead of one full column copy per conjunct.
func applyResolvable(ev *evaluator, cur *relation.Relation, pending []sqlparse.Expr, applied []bool) (*relation.Relation, error) {
	var preds []predFn
	for i, c := range pending {
		if applied[i] || !resolvable(c, cur.Schema) {
			continue
		}
		p, err := ev.compilePred(c, cur)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
		applied[i] = true
	}
	if len(preds) == 0 {
		return cur, nil
	}
	var sel []int32
	for i := 0; i < cur.Len(); i++ {
		keep := true
		for _, p := range preds {
			ok, err := p(i)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, int32(i))
		}
	}
	return cur.Gather(sel), nil
}

func loadRef(ev *evaluator, ref *sqlparse.TableRef, db *relation.Database) (*relation.Relation, error) {
	var rel *relation.Relation
	if ref.Sub != nil {
		sub, err := Run(ref.Sub, db)
		if err != nil {
			return nil, err
		}
		rel = sub
	} else {
		base, err := db.Relation(ref.Table)
		if err != nil {
			return nil, err
		}
		rel = base
	}
	// Zero-copy requalification: the view shares the base relation's column
	// storage (rows are never mutated by evaluation).
	return rel.WithSchema(ref.Alias, rel.Schema.WithQualifier(ref.Alias)), nil
}

// keyColumns extracts the packed cell keys of the given columns (column-
// major), encoded against target.
func keyColumns(r *relation.Relation, cols []int, target *relation.Dict) [][]relation.CellKey {
	out := make([][]relation.CellKey, len(cols))
	for c, j := range cols {
		out[c] = r.ColumnCellKeys(nil, j, target)
	}
	return out
}

// anyKeyNull reports whether row i is NULL in any key column.
func anyKeyNull(keys [][]relation.CellKey, i int) bool {
	for _, col := range keys {
		if col[i].IsNull() {
			return true
		}
	}
	return false
}

// join combines two relations under the given conditions. Equality
// conditions between one column on each side drive a hash join keyed on
// packed cell keys — the hash index maps key hashes to right-side row ids
// (no materialized tuples), probes verify the packed keys exactly, and the
// output is assembled by gathering both sides' typed columns through the
// matched pair's selection vectors. Non-equality conditions apply as
// compiled post-filters.
func join(ev *evaluator, left, right *relation.Relation, conds []sqlparse.Expr) (*relation.Relation, error) {
	var hashL, hashR []int
	var rest []sqlparse.Expr
	for _, c := range conds {
		li, ri, ok := equiJoinCols(c, left.Schema, right.Schema)
		if ok {
			hashL = append(hashL, li)
			hashR = append(hashR, ri)
		} else {
			rest = append(rest, c)
		}
	}
	name := left.Name + "⋈" + right.Name
	sch := left.Schema.Concat(right.Schema)
	var selL, selR []int32
	if len(hashL) > 0 {
		// Hash join on the equality columns; NULL keys never match. Keys
		// encode against the left dictionary (the output's code space), so
		// cross-dictionary string joins compare translated codes.
		target := left.Dict()
		lKeys := keyColumns(left, hashL, target)
		rKeys := keyColumns(right, hashR, target)
		index := buildJoinIndex(rKeys, right.Len())
		for i := 0; i < left.Len(); i++ {
			if anyKeyNull(lKeys, i) {
				continue
			}
			for j := index.probe(relation.HashRow(lKeys, i)); j >= 0; j = index.next[j] {
				if relation.RowKeysEqual(lKeys, i, rKeys, int(j)) {
					selL = append(selL, int32(i))
					selR = append(selR, j)
				}
			}
		}
		selL, selR, err := filterPairs(ev, name, sch, left, right, selL, selR, rest)
		if err != nil {
			return nil, err
		}
		return relation.ConcatGather(name, sch, left, selL, right, selR), nil
	}
	if len(rest) > 0 {
		// Filtered cross product: stream left-row batches so memory stays
		// O(batch + output) instead of materializing |L|·|R| pairs (the
		// row-at-a-time engine likewise retained only passing pairs).
		batch := joinBatchPairs / right.Len()
		if batch < 1 {
			batch = 1
		}
		bl := make([]int32, 0, batch*right.Len())
		br := make([]int32, 0, batch*right.Len())
		for lo := 0; lo < left.Len(); lo += batch {
			hi := lo + batch
			if hi > left.Len() {
				hi = left.Len()
			}
			bl, br = bl[:0], br[:0]
			for i := lo; i < hi; i++ {
				for j := 0; j < right.Len(); j++ {
					bl = append(bl, int32(i))
					br = append(br, int32(j))
				}
			}
			kl, kr, err := filterPairs(ev, name, sch, left, right, bl, br, rest)
			if err != nil {
				return nil, err
			}
			selL = append(selL, kl...)
			selR = append(selR, kr...)
		}
		return relation.ConcatGather(name, sch, left, selL, right, selR), nil
	}
	// Unfiltered cross product: the output IS every pair, in left-major
	// order.
	n := left.Len() * right.Len()
	selL = make([]int32, 0, n)
	selR = make([]int32, 0, n)
	for i := 0; i < left.Len(); i++ {
		for j := 0; j < right.Len(); j++ {
			selL = append(selL, int32(i))
			selR = append(selR, int32(j))
		}
	}
	return relation.ConcatGather(name, sch, left, selL, right, selR), nil
}

// joinIndex is the hash-join build side: a flat open-addressing table
// (linear probing, ≤50% load) keyed on the 64-bit row-key hash, with
// per-row next links forming each hash's duplicate chain. It replaces the
// former map[uint64][]int32, which boxed one slice per distinct key; the
// whole build is four allocations regardless of key count. As with the
// map, rows are grouped by hash and probes verify the packed keys exactly.
type joinIndex struct {
	mask   uint64
	hashes []uint64
	heads  []int32 // slot → first right row id of the chain, -1 empty
	next   []int32 // right row id → next row with the same hash, -1 end
}

// buildJoinIndex indexes the right side's non-NULL key rows. Rows insert
// in descending order with chain-prepends, so every chain iterates in
// ascending row order — byte-identical join output to the map build, which
// appended row ids in ascending order.
func buildJoinIndex(rKeys [][]relation.CellKey, n int) *joinIndex {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	ix := &joinIndex{
		mask:   uint64(size - 1),
		hashes: make([]uint64, size),
		heads:  make([]int32, size),
		next:   make([]int32, n),
	}
	for s := range ix.heads {
		ix.heads[s] = -1
	}
	for j := n - 1; j >= 0; j-- {
		ix.next[j] = -1
		if anyKeyNull(rKeys, j) {
			continue
		}
		h := relation.HashRow(rKeys, j)
		s := h & ix.mask
		for ix.heads[s] >= 0 && ix.hashes[s] != h {
			s = (s + 1) & ix.mask
		}
		ix.hashes[s] = h
		ix.next[j] = ix.heads[s]
		ix.heads[s] = int32(j)
	}
	return ix
}

// probe returns the first right row of the given hash's chain (-1 when the
// hash is absent); follow next links for the rest.
func (ix *joinIndex) probe(h uint64) int32 {
	s := h & ix.mask
	for {
		if ix.heads[s] < 0 {
			return -1
		}
		if ix.hashes[s] == h {
			return ix.heads[s]
		}
		s = (s + 1) & ix.mask
	}
}

// joinBatchPairs bounds how many candidate pairs filterPairs materializes
// at once.
const joinBatchPairs = 1 << 16

// filterPairs applies the non-equality join conditions to candidate pairs,
// returning the surviving (left, right) selection vectors. Candidates
// gather into bounded batches — predicates compile per batch (cheap: a
// closure tree) and evaluate vectorized, but only surviving pairs are ever
// retained, so memory stays O(batch + output) even when candidates vastly
// outnumber results.
func filterPairs(ev *evaluator, name string, sch *relation.Schema, left, right *relation.Relation, selL, selR []int32, rest []sqlparse.Expr) ([]int32, []int32, error) {
	if len(rest) == 0 || len(selL) == 0 {
		return selL, selR, nil
	}
	var keptL, keptR []int32
	scratch := make([]int32, 0, joinBatchPairs)
	for lo := 0; lo < len(selL); lo += joinBatchPairs {
		hi := lo + joinBatchPairs
		if hi > len(selL) {
			hi = len(selL)
		}
		bl, br := selL[lo:hi], selR[lo:hi]
		cand := relation.ConcatGather(name, sch, left, bl, right, br)
		alive := scratch[:0]
		for i := 0; i < cand.Len(); i++ {
			alive = append(alive, int32(i))
		}
		for _, c := range rest {
			if len(alive) == 0 {
				break
			}
			p, err := ev.compilePred(c, cand)
			if err != nil {
				return nil, nil, err
			}
			// In-place subset filter: the write position never passes the
			// read position.
			kept := alive[:0]
			for _, i := range alive {
				ok, err := p(int(i))
				if err != nil {
					return nil, nil, err
				}
				if ok {
					kept = append(kept, i)
				}
			}
			alive = kept
		}
		for _, i := range alive {
			keptL = append(keptL, bl[i])
			keptR = append(keptR, br[i])
		}
	}
	return keptL, keptR, nil
}

// equiJoinCols recognizes `a = b` with a on one side and b on the other.
func equiJoinCols(c sqlparse.Expr, left, right *relation.Schema) (int, int, bool) {
	b, ok := c.(*sqlparse.BinaryExpr)
	if !ok || b.Op != "=" {
		return 0, 0, false
	}
	lref, lok := b.Left.(*sqlparse.ColumnRef)
	rref, rok := b.Right.(*sqlparse.ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	if li, err := left.Index(lref.String()); err == nil {
		if ri, err := right.Index(rref.String()); err == nil {
			return li, ri, true
		}
	}
	if li, err := left.Index(rref.String()); err == nil {
		if ri, err := right.Index(lref.String()); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

// project applies the SELECT list (plain projection, DISTINCT, scalar
// aggregates, or GROUP BY aggregation) to the filtered source.
func project(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	hasAgg := false
	for _, it := range sel.Items {
		if it.Agg != sqlparse.AggNone {
			hasAgg = true
		}
	}
	if len(sel.GroupBy) > 0 {
		return groupProject(ev, sel, src)
	}
	if hasAgg {
		return aggregateProject(ev, sel, src)
	}
	return plainProject(ev, sel, src)
}

func itemName(it *sqlparse.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*sqlparse.ColumnRef); ok && it.Agg == sqlparse.AggNone {
		return ref.Name
	}
	if it.Agg != sqlparse.AggNone {
		if it.Star {
			return strings.ToLower(it.Agg.String()) + "_all"
		}
		return strings.ToLower(it.Agg.String())
	}
	return fmt.Sprintf("col%d", i+1)
}

// distinctSel dedupes r's rows on the packed keys of the given columns and
// returns the selection vector of first occurrences, in order.
func distinctSel(r *relation.Relation, cols []int) []int32 {
	keys := keyColumns(r, cols, r.Dict())
	g := newGrouper(r.Len())
	var sel32 []int32
	for i := 0; i < r.Len(); i++ {
		if _, fresh := g.At(keys, i); fresh {
			sel32 = append(sel32, int32(i))
		}
	}
	return sel32
}

// plainProject evaluates the SELECT list without aggregation. Column
// references — whether the whole list or interleaved with computed items —
// project as zero-copy shares of their source columns; only genuinely
// computed items evaluate their compiled closures, column-major. DISTINCT
// dedupes the assembled rows on packed keys through the flat group table
// and gathers the first occurrences.
func plainProject(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	names := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		names[i] = itemName(it, i)
	}
	outSchema := relation.NewSchema(names...)

	srcIdx := make([]int, len(sel.Items))
	fns := make([]scalarFn, len(sel.Items))
	allRefs := true
	for i, it := range sel.Items {
		if ref, ok := it.Expr.(*sqlparse.ColumnRef); ok {
			j, err := src.Schema.Index(ref.String())
			if err != nil {
				return nil, err
			}
			srcIdx[i] = j
			continue
		}
		allRefs = false
		srcIdx[i] = -1
		fn, err := ev.compileScalar(it.Expr, src)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}

	var out *relation.Relation
	if allRefs {
		out = src.ProjectColumns("", outSchema, srcIdx)
	} else {
		vals := make([][]relation.Value, len(sel.Items))
		for i := range sel.Items {
			if srcIdx[i] >= 0 {
				continue
			}
			col := make([]relation.Value, src.Len())
			for r := 0; r < src.Len(); r++ {
				v, err := fns[i](r)
				if err != nil {
					return nil, err
				}
				col[r] = v
			}
			vals[i] = col
		}
		out = src.SpliceColumns("", outSchema, srcIdx, vals)
	}
	if !sel.Distinct {
		return out, nil
	}
	allCols := make([]int, len(sel.Items))
	for i := range allCols {
		allCols[i] = i
	}
	return out.Gather(distinctSel(out, allCols)), nil
}

// aggregateProject evaluates an aggregate-only SELECT as a single group:
// the group exists before the first row, so an empty input still yields
// one row (COUNT 0, SUM NULL).
func aggregateProject(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	names := make([]string, len(sel.Items))
	aggs := make([]*groupAgg, len(sel.Items))
	for i, it := range sel.Items {
		if it.Agg == sqlparse.AggNone {
			return nil, fmt.Errorf("query: mixing aggregates and plain columns requires GROUP BY: %s", it)
		}
		names[i] = itemName(it, i)
		a, err := newGroupAgg(ev, it, src)
		if err != nil {
			return nil, err
		}
		a.addGroup()
		aggs[i] = a
	}
	for r := 0; r < src.Len(); r++ {
		for _, a := range aggs {
			if err := a.add(0, r); err != nil {
				return nil, err
			}
		}
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	rec := make(relation.Tuple, len(aggs))
	for i, a := range aggs {
		rec[i] = a.result(0)
	}
	out.AppendRow(rec)
	return out, nil
}

// groupIndexes resolves the GROUP BY columns and validates that every
// non-aggregate select item is one of them.
func groupIndexes(sel *sqlparse.Select, src *relation.Relation) ([]int, error) {
	gIdx := make([]int, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		idx, err := src.Schema.Index(g.String())
		if err != nil {
			return nil, err
		}
		gIdx[i] = idx
	}
	for _, it := range sel.Items {
		if it.Agg != sqlparse.AggNone {
			continue
		}
		ref, ok := it.Expr.(*sqlparse.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("query: non-aggregate select item %s must be a grouped column", it)
		}
		idx, err := src.Schema.Index(ref.String())
		if err != nil {
			return nil, err
		}
		found := false
		for _, gi := range gIdx {
			if gi == idx {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("query: column %s is not in GROUP BY", ref)
		}
	}
	return gIdx, nil
}

// groupAggMode selects a groupAgg's per-row add path.
type groupAggMode uint8

const (
	aggGeneric  groupAggMode = iota // compiled scalar per row, Value semantics
	aggStar                         // COUNT(*) and friends: every row counts
	aggIntCol                       // COUNT/SUM/AVG straight off an INT column
	aggFloatCol                     // COUNT/SUM/AVG straight off a FLOAT column
	aggCountCol                     // COUNT off any other typed column's null bitmap
)

// groupAgg accumulates one SELECT item's aggregate across every group in
// column-major typed arrays — counts[gi], sums[gi] — instead of one boxed
// *aggState per (item, group). COUNT/SUM/AVG over a homogeneous numeric
// column (and COUNT over strings or *) bind the typed storage once and
// never box a Value on the per-row path; every other shape evaluates its
// compiled scalar per row with aggState's exact add/result semantics, so
// results are bit-identical either way.
type groupAgg struct {
	fn   sqlparse.AggFunc
	mode groupAggMode

	// typed source binding (aggIntCol/aggFloatCol/aggCountCol); the
	// cursors hold zero-copy segment views scoped to one Execute call —
	// they die with the groupAgg before src can change.
	ic  intCol
	fc  floatCol
	sc  strCol
	sfn scalarFn // aggGeneric

	counts  []int64
	sums    []float64
	nonInts []bool // group's sum saw a non-Int value (aggState's !isInt)
	bests   []relation.Value
	inits   []bool
}

// newGroupAgg binds one aggregate select item against src: typed column
// storage when the shape qualifies, a compiled scalar closure otherwise.
func newGroupAgg(ev *evaluator, it *sqlparse.SelectItem, src *relation.Relation) (*groupAgg, error) {
	a := &groupAgg{fn: it.Agg}
	if it.Star {
		a.mode = aggStar
		return a, nil
	}
	if ref, ok := it.Expr.(*sqlparse.ColumnRef); ok {
		switch it.Agg {
		case sqlparse.AggCount, sqlparse.AggSum, sqlparse.AggAvg:
			if j, err := src.Schema.Index(ref.String()); err == nil {
				if ic, ok := bindIntCol(src, j); ok {
					a.mode, a.ic = aggIntCol, ic
					return a, nil
				}
				if fc, ok := bindFloatCol(src, j); ok {
					a.mode, a.fc = aggFloatCol, fc
					return a, nil
				}
				if it.Agg == sqlparse.AggCount {
					if sc, ok := bindStrCol(src, j); ok {
						a.mode, a.sc = aggCountCol, sc
						return a, nil
					}
				}
			}
		}
	}
	fn, err := ev.compileScalar(it.Expr, src)
	if err != nil {
		return nil, err
	}
	a.sfn = fn
	return a, nil
}

// addGroup extends the accumulator arrays for a freshly created group.
func (a *groupAgg) addGroup() {
	a.counts = append(a.counts, 0)
	a.sums = append(a.sums, 0)
	a.nonInts = append(a.nonInts, false)
	if a.fn == sqlparse.AggMax || a.fn == sqlparse.AggMin {
		a.bests = append(a.bests, relation.Null())
		a.inits = append(a.inits, false)
	}
}

// add folds source row r into group gi.
func (a *groupAgg) add(gi int32, r int) error {
	switch a.mode {
	case aggStar:
		if a.fn == sqlparse.AggCount {
			a.counts[gi]++
			return nil
		}
		return a.addValue(gi, relation.Int(1))
	case aggIntCol:
		v, null := a.ic.at(r)
		if null {
			return nil
		}
		a.counts[gi]++
		if a.fn != sqlparse.AggCount {
			a.sums[gi] += float64(v)
		}
		return nil
	case aggFloatCol:
		v, null := a.fc.at(r)
		if null {
			return nil
		}
		a.counts[gi]++
		if a.fn != sqlparse.AggCount {
			a.sums[gi] += v
			a.nonInts[gi] = true
		}
		return nil
	case aggCountCol:
		if _, null := a.sc.at(r); !null {
			a.counts[gi]++
		}
		return nil
	}
	v, err := a.sfn(r)
	if err != nil {
		return err
	}
	return a.addValue(gi, v)
}

// addValue replicates aggState.add against the column-major arrays.
func (a *groupAgg) addValue(gi int32, v relation.Value) error {
	if v.IsNull() {
		return nil
	}
	a.counts[gi]++
	switch a.fn {
	case sqlparse.AggCount:
		return nil
	case sqlparse.AggSum, sqlparse.AggAvg:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("query: %s over non-numeric value %v", a.fn, v)
		}
		if v.Kind() != relation.KindInt {
			a.nonInts[gi] = true
		}
		a.sums[gi] += f
		return nil
	case sqlparse.AggMax, sqlparse.AggMin:
		if !a.inits[gi] {
			a.bests[gi] = v
			a.inits[gi] = true
			return nil
		}
		c, ok := v.Compare(a.bests[gi])
		if !ok {
			return fmt.Errorf("query: %s over incomparable values %v and %v", a.fn, v, a.bests[gi])
		}
		if (a.fn == sqlparse.AggMax && c > 0) || (a.fn == sqlparse.AggMin && c < 0) {
			a.bests[gi] = v
		}
		return nil
	}
	return fmt.Errorf("query: unknown aggregate %v", a.fn)
}

// result materializes group gi's aggregate, matching aggState.result.
func (a *groupAgg) result(gi int) relation.Value {
	switch a.fn {
	case sqlparse.AggCount:
		return relation.Int(a.counts[gi])
	case sqlparse.AggSum:
		if a.counts[gi] == 0 {
			return relation.Null()
		}
		if !a.nonInts[gi] {
			return relation.Int(int64(a.sums[gi]))
		}
		return relation.Float(a.sums[gi])
	case sqlparse.AggAvg:
		if a.counts[gi] == 0 {
			return relation.Null()
		}
		return relation.Float(a.sums[gi] / float64(a.counts[gi]))
	case sqlparse.AggMax, sqlparse.AggMin:
		if !a.inits[gi] {
			return relation.Null()
		}
		return a.bests[gi]
	}
	return relation.Null()
}

// groupProject aggregates per group, keying groups on packed cell keys
// through the flat group table. Each group tracks only its first source row
// id — non-aggregate items evaluate there at output time — and groups emit
// in first-appearance order, exactly like the reference engine.
func groupProject(ev *evaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	gIdx, err := groupIndexes(sel, src)
	if err != nil {
		return nil, err
	}
	keys := keyColumns(src, gIdx, src.Dict())

	fns := make([]scalarFn, len(sel.Items))
	aggs := make([]*groupAgg, len(sel.Items))
	for i, it := range sel.Items {
		if it.Agg != sqlparse.AggNone {
			aggs[i], err = newGroupAgg(ev, it, src)
			if err != nil {
				return nil, err
			}
			continue
		}
		fns[i], err = ev.compileScalar(it.Expr, src)
		if err != nil {
			return nil, err
		}
	}

	var firsts []int32
	table := newGrouper(src.Len())
	for r := 0; r < src.Len(); r++ {
		gi, fresh := table.At(keys, r)
		if fresh {
			firsts = append(firsts, int32(r))
			for _, a := range aggs {
				if a != nil {
					a.addGroup()
				}
			}
		}
		for _, a := range aggs {
			if a == nil {
				continue
			}
			if err := a.add(gi, r); err != nil {
				return nil, err
			}
		}
	}
	names := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		names[i] = itemName(it, i)
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	rec := make(relation.Tuple, len(sel.Items))
	for gi := range firsts {
		for i := range sel.Items {
			if aggs[i] != nil {
				rec[i] = aggs[i].result(gi)
				continue
			}
			v, err := fns[i](int(firsts[gi]))
			if err != nil {
				return nil, err
			}
			rec[i] = v
		}
		out.AppendRow(rec)
	}
	return out, nil
}
