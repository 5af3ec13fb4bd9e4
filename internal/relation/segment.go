package relation

// Segment-chunked column storage. Every typed column is split into
// fixed-size segments — per-segment typed arrays plus a segment-local null
// bitmap — behind a segment directory, so relations can be built, scanned,
// gathered, and (eventually) spilled segment-at-a-time with bounded peak
// memory: appending never reallocates a flat array spanning the whole
// column, and a scan touches one segment's arrays at a time.

// defaultSegmentRows is the number of rows per full column segment. 4096
// rows keeps a segment's widest payload (int64/float64) at 32 KiB — well
// inside L1/L2 — while the directory stays tiny (245 segments per million
// rows).
const defaultSegmentRows = 4096

// segmentRows is the segment length newly created columns capture. It is a
// process-wide tuning knob; see SetSegmentSize.
var segmentRows = defaultSegmentRows

// SegmentSize returns the row count per full segment that newly created
// columns use.
func SegmentSize() int { return segmentRows }

// SetSegmentSize changes the segment length for columns created afterwards
// (existing columns keep the length they were built with). It exists for
// differential tests that pin segmented ≡ unsegmented behavior across
// pathological sizes; it must not be called concurrently with relation
// building.
func SetSegmentSize(n int) {
	if n < 1 {
		panic("relation: segment size must be >= 1")
	}
	segmentRows = n
}

// colSeg is one fixed-size chunk of a typed column: exactly one of the
// typed arrays is populated (matching the column's kind), and nulls is the
// segment-local bitmap (bit set = NULL), indexed by in-segment offset.
type colSeg struct {
	nulls  []uint64
	ints   []int64
	floats []float64
	bools  []bool
	codes  []uint32
}

// rows returns the number of rows stored in the segment.
func (s *colSeg) rows(k Kind) int {
	switch k {
	case KindInt:
		return len(s.ints)
	case KindFloat:
		return len(s.floats)
	case KindBool:
		return len(s.bools)
	case KindString:
		return len(s.codes)
	}
	// KindNull: only the bitmap carries length (64 rows per word is an
	// upper bound; callers never need exact counts for all-NULL segments).
	return 0
}

// SegmentLen returns the rows-per-full-segment length of column j. The last
// segment may be shorter; boxed heterogeneous columns report their fallback
// as one segment spanning every row.
func (r *Relation) SegmentLen(j int) int {
	c := r.cols[j]
	if c.mixed != nil || c.segLen == 0 {
		if r.nrows > 0 {
			return r.nrows
		}
		return segmentRows
	}
	return c.segLen
}

// IntSegments exposes column j's typed storage when it is a homogeneous INT
// column: per-segment value arrays plus per-segment null bitmaps (bit set =
// NULL, indexed by in-segment offset). Segment k holds rows
// [k*SegmentLen(j), k*SegmentLen(j)+len(segs[k])). The segment slices are
// zero-copy views of column storage.
//
//lint:view
func (r *Relation) IntSegments(j int) (segs [][]int64, nulls [][]uint64, ok bool) {
	c := r.cols[j]
	if c.mixed != nil || c.kind != KindInt {
		return nil, nil, false
	}
	segs = make([][]int64, len(c.segs))
	nulls = make([][]uint64, len(c.segs))
	for k, s := range c.segs {
		segs[k], nulls[k] = s.ints, s.nulls
	}
	return segs, nulls, true
}

// FloatSegments exposes column j's typed storage when it is a homogeneous
// FLOAT column, one value array and null bitmap per segment.
//
//lint:view
func (r *Relation) FloatSegments(j int) (segs [][]float64, nulls [][]uint64, ok bool) {
	c := r.cols[j]
	if c.mixed != nil || c.kind != KindFloat {
		return nil, nil, false
	}
	segs = make([][]float64, len(c.segs))
	nulls = make([][]uint64, len(c.segs))
	for k, s := range c.segs {
		segs[k], nulls[k] = s.floats, s.nulls
	}
	return segs, nulls, true
}

// StringSegments exposes column j's dictionary codes when it is a
// homogeneous TEXT column, one code array and null bitmap per segment.
//
//lint:view
func (r *Relation) StringSegments(j int) (segs [][]uint32, nulls [][]uint64, ok bool) {
	c := r.cols[j]
	if c.mixed != nil || c.kind != KindString {
		return nil, nil, false
	}
	segs = make([][]uint32, len(c.segs))
	nulls = make([][]uint64, len(c.segs))
	for k, s := range c.segs {
		segs[k], nulls[k] = s.codes, s.nulls
	}
	return segs, nulls, true
}
