package relation

import (
	"fmt"
	"sort"
	"strings"
)

// delta.go — copy-on-write append/update/delete batches over the segment
// directory.
//
// ApplyDelta turns a Relation plus a Delta batch into a NEW relation that
// shares every storage segment the batch did not touch: segments before the
// first deleted row are aliased wholesale, survivors after it are gathered
// into fresh aligned segments, and updates/appends copy only the segment
// they land in before writing. The source relation is never mutated, so
// readers holding it (in-flight server requests) keep a consistent view.
//
// Relations produced by ApplyDelta share segments with their source: neither
// generation may be mutated through Append/AppendRow/Set afterwards — apply
// further deltas instead. The dictionary is shared and append-only, so codes
// stay valid across generations.

// RowUpdate replaces the whole tuple at a (pre-delta) row position.
type RowUpdate struct {
	Row    int
	Values Tuple
}

// Delta is one batch of row changes against a relation: deletions and
// updates address pre-delta row positions; appends go to the end, after
// surviving rows are compacted.
type Delta struct {
	Appends []Tuple
	Updates []RowUpdate
	Deletes []int
}

// Empty reports whether the batch changes nothing.
func (d Delta) Empty() bool {
	return len(d.Appends) == 0 && len(d.Updates) == 0 && len(d.Deletes) == 0
}

// DeltaResult describes how ApplyDelta mapped old rows to new ones — the
// contract downstream incremental maintenance (linkage index, Stage-1 match
// diffing) is built on.
type DeltaResult struct {
	OldRows int
	NewRows int
	// Version is the new relation's version.
	Version int64
	// RowMap maps every pre-delta row to its post-delta position, -1 for
	// deleted rows. Updated rows map to their new position (their content
	// changed in place; they also appear in Dirty).
	RowMap []int
	// Dirty lists post-delta rows whose content is new or changed (updated
	// and appended rows), ascending.
	Dirty []int
	// Batch sizes actually applied.
	Appended, Updated, Deleted int
}

// Version returns the relation's monotonically increasing version: 0 for a
// freshly built relation, bumped by each ApplyDelta generation.
func (r *Relation) Version() int64 { return r.version }

// ApplyDelta applies one batch and returns the new relation generation plus
// the old→new row mapping. The receiver is left untouched. Deletes and
// updates must address distinct in-range rows (an update of a deleted row is
// an error); appended and updated tuples must match the schema arity.
func (r *Relation) ApplyDelta(d Delta) (*Relation, *DeltaResult, error) {
	n := r.nrows
	deleted := make([]bool, n)
	for _, i := range d.Deletes {
		if i < 0 || i >= n {
			return nil, nil, fmt.Errorf("relation %s: delta deletes row %d of %d", r.Name, i, n)
		}
		if deleted[i] {
			return nil, nil, fmt.Errorf("relation %s: delta deletes row %d twice", r.Name, i)
		}
		deleted[i] = true
	}
	updatedAt := make([]bool, n)
	for _, u := range d.Updates {
		if u.Row < 0 || u.Row >= n {
			return nil, nil, fmt.Errorf("relation %s: delta updates row %d of %d", r.Name, u.Row, n)
		}
		if deleted[u.Row] {
			return nil, nil, fmt.Errorf("relation %s: delta updates deleted row %d", r.Name, u.Row)
		}
		if updatedAt[u.Row] {
			return nil, nil, fmt.Errorf("relation %s: delta updates row %d twice", r.Name, u.Row)
		}
		updatedAt[u.Row] = true
		if len(u.Values) != len(r.cols) {
			return nil, nil, fmt.Errorf("relation %s: delta update arity %d != schema arity %d", r.Name, len(u.Values), len(r.cols))
		}
	}
	for _, t := range d.Appends {
		if len(t) != len(r.cols) {
			return nil, nil, fmt.Errorf("relation %s: delta append arity %d != schema arity %d", r.Name, len(t), len(r.cols))
		}
	}

	rowMap := make([]int, n)
	firstDel := -1
	nSurv := 0
	for i := 0; i < n; i++ {
		if deleted[i] {
			rowMap[i] = -1
			if firstDel < 0 {
				firstDel = i
			}
			continue
		}
		rowMap[i] = nSurv
		nSurv++
	}

	out := &Relation{
		Name:    r.Name,
		Schema:  r.Schema,
		dict:    r.dict,
		nrows:   nSurv,
		version: r.version + 1,
	}
	out.cols = make([]*column, len(r.cols))
	cow := make([]cowColumn, len(r.cols))
	for j, c := range r.cols {
		cow[j] = cowFrom(c, rowMap, firstDel, nSurv)
		out.cols[j] = cow[j].c
	}

	for _, u := range d.Updates {
		ni := rowMap[u.Row]
		for j := range cow {
			cow[j].set(r.dict, ni, nSurv, u.Values[j])
		}
	}
	for _, t := range d.Appends {
		for j := range cow {
			cow[j].append(r.dict, out.nrows, t[j])
		}
		out.nrows++
	}

	res := &DeltaResult{
		OldRows:  n,
		NewRows:  out.nrows,
		Version:  out.version,
		RowMap:   rowMap,
		Appended: len(d.Appends),
		Updated:  len(d.Updates),
		Deleted:  len(d.Deletes),
	}
	for i := 0; i < n; i++ {
		if updatedAt[i] {
			res.Dirty = append(res.Dirty, rowMap[i])
		}
	}
	sort.Ints(res.Dirty)
	for i := nSurv; i < out.nrows; i++ {
		res.Dirty = append(res.Dirty, i)
	}
	return out, res, nil
}

// cowColumn is one output column under construction, tracking which of its
// segments still alias the source relation so any write copies first.
type cowColumn struct {
	c      *column
	shared []bool // shared[si]: segs[si] aliases the source column
}

// cowFrom builds the survivor storage for one column: boxed columns copy
// their survivor values (the boxed slice is then private), typed columns
// alias full segments before the first delete and gather the surviving
// suffix into fresh aligned segments.
func cowFrom(c *column, rowMap []int, firstDel, nSurv int) cowColumn {
	if c.mixed != nil {
		vals := make([]Value, 0, nSurv)
		for i, ni := range rowMap {
			if ni >= 0 {
				vals = append(vals, c.mixed[i])
			}
		}
		return cowColumn{c: &column{mixed: vals}}
	}
	if c.segLen == 0 || len(c.segs) == 0 {
		// Empty column: nothing survives, appends start fresh.
		return cowColumn{c: &column{kind: c.kind}}
	}
	out := &column{kind: c.kind, segLen: c.segLen}
	if firstDel < 0 {
		out.segs = append([]*colSeg(nil), c.segs...)
		shared := make([]bool, len(out.segs))
		for i := range shared {
			shared[i] = true
		}
		return cowColumn{c: out, shared: shared}
	}
	// Full segments before the first delete alias the source; the suffix is
	// gathered into fresh segments. The prefix covers whole segments only,
	// so the gathered suffix starts segment-aligned.
	bs := firstDel / c.segLen
	out.segs = append(out.segs, c.segs[:bs]...)
	shared := make([]bool, bs, len(c.segs)+1)
	for i := range shared {
		shared[i] = true
	}
	var suffix []int
	for i := bs * c.segLen; i < len(rowMap); i++ {
		if rowMap[i] >= 0 {
			suffix = append(suffix, i)
		}
	}
	if len(suffix) > 0 {
		g, _ := gatherSegs(c, suffix)
		out.segs = append(out.segs, g.segs...)
		for range g.segs {
			shared = append(shared, false)
		}
	}
	return cowColumn{c: out, shared: shared}
}

// own replaces an aliased segment with a private deep copy.
func (w *cowColumn) own(si int) {
	if si < len(w.shared) && w.shared[si] {
		w.c.segs[si] = w.c.segs[si].clone()
		w.shared[si] = false
	}
}

// ownAll privatizes every aliased segment — required before operations that
// touch the whole directory (backfill when an all-NULL column gets its first
// non-null cell pads every segment in place).
func (w *cowColumn) ownAll() {
	for si := range w.shared {
		w.own(si)
	}
}

// set overwrites position i (column length n), privatizing the touched
// segment first. Kind promotion to the boxed fallback only reads the shared
// segments, then abandons them, so it needs no copy.
func (w *cowColumn) set(d *Dict, i, n int, v Value) {
	c := w.c
	if c.mixed != nil {
		c.mixed[i] = v
		return
	}
	if c.kind == KindNull && v.kind != KindNull {
		w.ownAll()
	} else {
		w.own(i / c.segLen)
	}
	c.set(d, i, n, v)
}

// append adds a value at position n (the column's current length),
// privatizing the partial last segment when the write lands in it.
func (w *cowColumn) append(d *Dict, n int, v Value) {
	c := w.c
	if c.mixed != nil {
		c.mixed = append(c.mixed, v)
		return
	}
	if c.kind == KindNull && v.kind != KindNull {
		// First non-null cell backfills every segment in place.
		w.ownAll()
	} else if c.segLen > 0 && n%c.segLen != 0 {
		w.own(n / c.segLen)
	}
	c.append(d, n, v)
}

// clone deep-copies one segment.
func (s *colSeg) clone() *colSeg {
	return &colSeg{
		nulls:  append([]uint64(nil), s.nulls...),
		ints:   append([]int64(nil), s.ints...),
		floats: append([]float64(nil), s.floats...),
		bools:  append([]bool(nil), s.bools...),
		codes:  append([]uint32(nil), s.codes...),
	}
}

// DBDelta maps relation names (case-insensitive) to their delta batches.
type DBDelta map[string]Delta

// ApplyDelta applies per-relation batches and returns a new database
// generation. Untouched relations are shared by pointer; touched ones are
// replaced by their new generation. Results are keyed by lowercased
// relation name. Two batches whose names differ only in case are rejected:
// both would apply to the same pre-delta relation and the later would
// silently overwrite the earlier.
func (db *Database) ApplyDelta(dd DBDelta) (*Database, map[string]*DeltaResult, error) {
	out := &Database{
		Name:      db.Name,
		relations: make(map[string]*Relation, len(db.relations)),
		order:     append([]string(nil), db.order...),
	}
	for k, r := range db.relations {
		out.relations[k] = r
	}
	names := make([]string, 0, len(dd))
	for name := range dd {
		names = append(names, name)
	}
	sort.Strings(names)
	results := make(map[string]*DeltaResult, len(dd))
	spelled := make(map[string]string, len(dd))
	for _, name := range names {
		key := strings.ToLower(name)
		if prev, dup := spelled[key]; dup {
			return nil, nil, fmt.Errorf("relation %s: delta names it twice, as %q and %q", key, prev, name)
		}
		spelled[key] = name
		r, err := db.Relation(name)
		if err != nil {
			return nil, nil, err
		}
		nr, res, err := r.ApplyDelta(dd[name])
		if err != nil {
			return nil, nil, err
		}
		out.relations[key] = nr
		results[key] = res
	}
	return out, results, nil
}
