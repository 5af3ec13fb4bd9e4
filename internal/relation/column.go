package relation

// column stores one attribute of a relation columnar-ly, chunked into
// fixed-size segments: each segment holds a typed array ([]int64,
// []float64, []bool, or dictionary codes for strings) plus a segment-local
// null bitmap, and the segs directory replaces the single flat array.
// Appending fills the last segment and never reallocates storage spanning
// the whole column, so build-time peak memory is bounded by one segment. A
// column whose cells disagree on kind falls back to a boxed []Value
// representation — heterogeneous columns are legal (CSV import infers kinds
// per cell) but rare, and the fallback keeps exact per-cell kind fidelity
// so query semantics are unchanged.
type column struct {
	kind   Kind      // physical kind of the typed arrays; KindNull while every cell is NULL
	segLen int       // rows per full segment; fixed at first append
	segs   []*colSeg // segment directory; the last segment may be partial
	mixed  []Value   // non-nil: heterogeneous fallback, the source of truth
}

func bitGet(words []uint64, i int) bool { return words[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(words []uint64, i int)      { words[i>>6] |= 1 << (uint(i) & 63) }
func bitClear(words []uint64, i int)    { words[i>>6] &^= 1 << (uint(i) & 63) }

// seg locates position i: the segment holding it and the in-segment offset.
func (c *column) seg(i int) (*colSeg, int) {
	return c.segs[i/c.segLen], i % c.segLen
}

// append adds v at position n (the column's current length).
func (c *column) append(d *Dict, n int, v Value) {
	if c.mixed != nil {
		c.mixed = append(c.mixed, v)
		return
	}
	if c.segLen == 0 {
		c.segLen = segmentRows
	}
	off := n % c.segLen
	if off == 0 {
		c.segs = append(c.segs, &colSeg{})
	}
	s := c.segs[n/c.segLen]
	if off&63 == 0 {
		s.nulls = append(s.nulls, 0)
	}
	if v.kind == KindNull {
		bitSet(s.nulls, off)
		c.padSeg(s, 1)
		return
	}
	if c.kind == KindNull {
		// First non-null cell fixes the physical kind; backfill every
		// segment's data array for the all-NULL prefix so positions stay
		// aligned.
		c.kind = v.kind
		c.backfill(n)
	}
	if v.kind != c.kind {
		c.promote(d, n)
		c.mixed = append(c.mixed, v)
		return
	}
	switch c.kind {
	case KindInt:
		s.ints = append(s.ints, v.i)
	case KindFloat:
		s.floats = append(s.floats, v.f)
	case KindBool:
		s.bools = append(s.bools, v.b)
	case KindString:
		s.codes = append(s.codes, d.Intern(v.s))
	}
}

// padSeg appends k zero cells to one segment's typed array (their null bits
// mask them).
func (c *column) padSeg(s *colSeg, k int) {
	switch c.kind {
	case KindInt:
		for i := 0; i < k; i++ {
			s.ints = append(s.ints, 0)
		}
	case KindFloat:
		for i := 0; i < k; i++ {
			s.floats = append(s.floats, 0)
		}
	case KindBool:
		for i := 0; i < k; i++ {
			s.bools = append(s.bools, false)
		}
	case KindString:
		for i := 0; i < k; i++ {
			s.codes = append(s.codes, 0)
		}
	}
}

// backfill pads every segment's typed array to cover the first n rows; it
// runs once, when the first non-null cell fixes the kind of a column whose
// prefix was all NULL.
func (c *column) backfill(n int) {
	for si, s := range c.segs {
		rows := c.segLen
		if si == len(c.segs)-1 {
			rows = n - si*c.segLen
		}
		c.padSeg(s, rows-s.rows(c.kind))
	}
}

// promote converts the first n cells into the boxed fallback.
func (c *column) promote(d *Dict, n int) {
	vals := make([]Value, n)
	for i := 0; i < n; i++ {
		vals[i] = c.get(d, i)
	}
	c.mixed = vals
	c.kind = KindNull
	c.segs = nil
}

// get reads the cell at position i.
func (c *column) get(d *Dict, i int) Value {
	if c.mixed != nil {
		return c.mixed[i]
	}
	s, off := c.seg(i)
	if bitGet(s.nulls, off) {
		return Value{}
	}
	switch c.kind {
	case KindInt:
		return Value{kind: KindInt, i: s.ints[off]}
	case KindFloat:
		return Value{kind: KindFloat, f: s.floats[off]}
	case KindBool:
		return Value{kind: KindBool, b: s.bools[off]}
	case KindString:
		return Value{kind: KindString, s: d.String(s.codes[off])}
	}
	return Value{}
}

// set overwrites the cell at position i; n is the column's length.
func (c *column) set(d *Dict, i, n int, v Value) {
	if c.mixed != nil {
		c.mixed[i] = v
		return
	}
	s, off := c.seg(i)
	if v.kind == KindNull {
		bitSet(s.nulls, off) // stale typed payload is masked by the bit
		return
	}
	if c.kind == KindNull {
		c.kind = v.kind
		c.backfill(n)
	}
	if v.kind != c.kind {
		c.promote(d, n)
		c.mixed[i] = v
		return
	}
	bitClear(s.nulls, off)
	switch c.kind {
	case KindInt:
		s.ints[off] = v.i
	case KindFloat:
		s.floats[off] = v.f
	case KindBool:
		s.bools[off] = v.b
	case KindString:
		s.codes[off] = d.Intern(v.s)
	}
}

// clone deep-copies the column (dict codes stay valid: dicts are shared).
func (c *column) clone() *column {
	out := &column{kind: c.kind, segLen: c.segLen}
	if len(c.segs) > 0 {
		out.segs = make([]*colSeg, len(c.segs))
		for k, s := range c.segs {
			out.segs[k] = &colSeg{
				nulls:  append([]uint64(nil), s.nulls...),
				ints:   append([]int64(nil), s.ints...),
				floats: append([]float64(nil), s.floats...),
				bools:  append([]bool(nil), s.bools...),
				codes:  append([]uint32(nil), s.codes...),
			}
		}
	}
	if c.mixed != nil {
		out.mixed = make([]Value, len(c.mixed))
		copy(out.mixed, c.mixed)
	}
	return out
}

// gather builds a new column holding the given row positions, in order,
// stored exactly as AppendRow would store those cells. Typed payloads and
// dict codes copy directly — no Value boxing and no re-interning; a typed
// column whose gathered cells are all NULL comes back untyped. A boxed
// column re-appends its gathered cells (interning strings into d), so it
// comes back typed when they share one kind.
func (c *column) gather(d *Dict, rows []int) *column { return gatherColumn(c, d, rows) }

// gather32 is gather for the query engine's selection vectors.
func (c *column) gather32(d *Dict, rows []int32) *column { return gatherColumn(c, d, rows) }

func gatherColumn[T int | int32](c *column, d *Dict, rows []T) *column {
	if c.mixed != nil {
		out := &column{}
		for k, i := range rows {
			out.append(d, k, c.mixed[i])
		}
		return out
	}
	out, filled := gatherSegs(c, rows)
	if !filled {
		out.kind = KindNull
		for _, seg := range out.segs {
			seg.ints, seg.floats, seg.bools, seg.codes = nil, nil, nil, nil
		}
	}
	return out
}

// gatherSegs copies a typed column's cells at rows into fresh segments of
// the same kind and segment length, and reports whether any was non-NULL.
func gatherSegs[T int | int32](c *column, rows []T) (*column, bool) {
	srcLen := c.segLen
	if srcLen == 0 {
		srcLen = segmentRows
	}
	out := &column{kind: c.kind, segLen: srcLen}
	n := len(rows)
	filled := false
	// Output segments are assembled one at a time, reading source cells
	// through the directory; the common single-segment source skips the
	// per-row division.
	var single *colSeg
	if len(c.segs) == 1 {
		single = c.segs[0]
	}
	for base := 0; base < n; base += srcLen {
		m := n - base
		if m > srcLen {
			m = srcLen
		}
		seg := &colSeg{nulls: make([]uint64, (m+63)/64)}
		switch c.kind {
		case KindInt:
			seg.ints = make([]int64, m)
		case KindFloat:
			seg.floats = make([]float64, m)
		case KindBool:
			seg.bools = make([]bool, m)
		case KindString:
			seg.codes = make([]uint32, m)
		}
		for k := 0; k < m; k++ {
			i := int(rows[base+k])
			src, off := single, i
			if src == nil {
				src, off = c.seg(i)
			}
			if bitGet(src.nulls, off) {
				bitSet(seg.nulls, k)
				continue
			}
			filled = true
			switch c.kind {
			case KindInt:
				seg.ints[k] = src.ints[off]
			case KindFloat:
				seg.floats[k] = src.floats[off]
			case KindBool:
				seg.bools[k] = src.bools[off]
			case KindString:
				seg.codes[k] = src.codes[off]
			}
		}
		out.segs = append(out.segs, seg)
	}
	return out, filled
}
