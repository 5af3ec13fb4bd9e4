package relation

// This file holds the vectorized-execution surface the query engine sits
// on: selection-vector gathers, zero-copy column projection, join-output
// assembly, and lock-free per-column accessors.

// Gather builds a new relation holding the given row positions, in order —
// Select for the query engine's []int32 selection vectors. It shares the
// schema and dictionary, copies typed column segments directly, and stores
// each column as AppendRow would store the gathered cells.
func (r *Relation) Gather(sel []int32) *Relation {
	out := &Relation{Name: r.Name, Schema: r.Schema, dict: r.dict, nrows: len(sel)}
	out.cols = make([]*column, len(r.cols))
	for j, c := range r.cols {
		out.cols[j] = c.gather32(r.dict, sel)
	}
	return out
}

// ProjectColumns returns a zero-copy view exposing the given source columns,
// in order, under a new schema (one column per index). Like WithSchema, the
// view shares column storage with the base: neither may be appended to
// afterwards.
func (r *Relation) ProjectColumns(name string, sch *Schema, cols []int) *Relation {
	out := &Relation{Name: name, Schema: sch, dict: r.dict, nrows: r.nrows}
	out.cols = make([]*column, len(cols))
	for k, j := range cols {
		out.cols[k] = r.cols[j]
	}
	return out
}

// AppendValueColumn returns a relation extending r with one extra column
// built from vals (len(vals) must equal r.Len()). The existing columns are
// shared, not copied; sch must be r's schema plus the new column.
func (r *Relation) AppendValueColumn(name string, sch *Schema, vals []Value) *Relation {
	out := &Relation{Name: name, Schema: sch, dict: r.dict, nrows: r.nrows}
	out.cols = make([]*column, len(r.cols)+1)
	copy(out.cols, r.cols)
	nc := &column{}
	for i, v := range vals {
		nc.append(r.dict, i, v)
	}
	out.cols[len(r.cols)] = nc
	return out
}

// SpliceColumns assembles a projection output mixing shared and computed
// columns: output column k is a zero-copy share of r's column srcIdx[k]
// when srcIdx[k] >= 0, and otherwise a fresh column built from vals[k]
// (one Value per source row). Shared columns follow the WithSchema
// contract: neither relation may be appended to afterwards.
func (r *Relation) SpliceColumns(name string, sch *Schema, srcIdx []int, vals [][]Value) *Relation {
	out := &Relation{Name: name, Schema: sch, dict: r.dict, nrows: r.nrows}
	out.cols = make([]*column, len(srcIdx))
	for k, j := range srcIdx {
		if j >= 0 {
			out.cols[k] = r.cols[j]
			continue
		}
		nc := &column{}
		for i, v := range vals[k] {
			nc.append(r.dict, i, v)
		}
		out.cols[k] = nc
	}
	return out
}

// ConcatGather assembles a join output: left's columns gathered through
// selL side by side with right's columns gathered through selR (selL and
// selR align pairwise). The output uses left's dictionary; right-side
// string codes from a foreign dictionary are translated once per distinct
// code.
func ConcatGather(name string, sch *Schema, left *Relation, selL []int32, right *Relation, selR []int32) *Relation {
	out := &Relation{Name: name, Schema: sch, dict: left.dict, nrows: len(selL)}
	out.cols = make([]*column, 0, len(left.cols)+len(right.cols))
	for _, c := range left.cols {
		out.cols = append(out.cols, c.gather32(left.dict, selL))
	}
	foreign := right.dict != left.dict
	for _, c := range right.cols {
		g := c.gather32(right.dict, selR)
		if foreign && g.mixed == nil && g.kind == KindString {
			translateCodes(g, right.dict, left.dict)
		}
		out.cols = append(out.cols, g)
	}
	return out
}

// translateCodes rewrites a gathered string column's codes from one
// dictionary into another, caching each distinct translation.
func translateCodes(c *column, from, to *Dict) {
	tr := codeTranslator{from: from, to: to}
	for _, s := range c.segs {
		for i := range s.codes {
			if !bitGet(s.nulls, i) {
				s.codes[i] = tr.translate(s.codes[i])
			}
		}
	}
}

// Accessor returns a row→Value reader for column j that binds the column's
// typed storage (and a dictionary snapshot for strings) once, so per-cell
// reads inside compiled-query inner loops take no locks and no per-column
// dispatch. Single-segment columns — every relation below one segment
// length — bind the segment's arrays directly; larger columns locate the
// segment per read.
func (r *Relation) Accessor(j int) func(i int) Value {
	c := r.cols[j]
	if c.mixed != nil {
		mixed := c.mixed
		return func(i int) Value { return mixed[i] }
	}
	if len(c.segs) == 1 {
		s := c.segs[0]
		nulls := s.nulls
		switch c.kind {
		case KindInt:
			ints := s.ints
			return func(i int) Value {
				if bitGet(nulls, i) {
					return Value{}
				}
				return Value{kind: KindInt, i: ints[i]}
			}
		case KindFloat:
			floats := s.floats
			return func(i int) Value {
				if bitGet(nulls, i) {
					return Value{}
				}
				return Value{kind: KindFloat, f: floats[i]}
			}
		case KindBool:
			bools := s.bools
			return func(i int) Value {
				if bitGet(nulls, i) {
					return Value{}
				}
				return Value{kind: KindBool, b: bools[i]}
			}
		case KindString:
			codes := s.codes
			strs := r.dict.Strings()
			return func(i int) Value {
				if bitGet(nulls, i) {
					return Value{}
				}
				return Value{kind: KindString, s: strs[codes[i]]}
			}
		}
		return func(int) Value { return Value{} }
	}
	segs, L := c.segs, c.segLen
	switch c.kind {
	case KindInt:
		return func(i int) Value {
			s, off := segs[i/L], i%L
			if bitGet(s.nulls, off) {
				return Value{}
			}
			return Value{kind: KindInt, i: s.ints[off]}
		}
	case KindFloat:
		return func(i int) Value {
			s, off := segs[i/L], i%L
			if bitGet(s.nulls, off) {
				return Value{}
			}
			return Value{kind: KindFloat, f: s.floats[off]}
		}
	case KindBool:
		return func(i int) Value {
			s, off := segs[i/L], i%L
			if bitGet(s.nulls, off) {
				return Value{}
			}
			return Value{kind: KindBool, b: s.bools[off]}
		}
	case KindString:
		strs := r.dict.Strings()
		return func(i int) Value {
			s, off := segs[i/L], i%L
			if bitGet(s.nulls, off) {
				return Value{}
			}
			return Value{kind: KindString, s: strs[s.codes[off]]}
		}
	}
	return func(int) Value { return Value{} }
}

// NullAt reports whether bit i of a null bitmap returned by the typed
// segment views is set (i is the in-segment offset).
func NullAt(nulls []uint64, i int) bool { return bitGet(nulls, i) }
