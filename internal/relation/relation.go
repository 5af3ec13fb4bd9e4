package relation

import (
	"fmt"
	"strings"
)

// Tuple is one materialized row; cells align positionally with the
// relation's schema. Relations store their data columnar-ly (see column) —
// a Tuple is the row view handed to evaluation code.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Key concatenates the canonical keys of the given cell indexes; used for
// hashing join and group-by keys.
func (t Tuple) Key(idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		b.WriteString(t[i].Key())
	}
	return b.String()
}

// Relation is an in-memory table: a schema plus columnar storage — one
// typed array (plus null bitmap) per column, with strings dictionary-encoded
// against a Dict shared by derived relations. Row access goes through the
// thin row-view API (Len, At, Row, RowInto, Tuples), mutation through
// Append/AppendRow/Set.
type Relation struct {
	Name   string
	Schema *Schema
	dict   *Dict
	cols   []*column
	nrows  int
	// version counts ApplyDelta generations (see delta.go); 0 when fresh.
	version int64
}

// New creates an empty relation with the given name and column refs, backed
// by a fresh dictionary.
func New(name string, cols ...string) *Relation {
	return NewWithDict(NewDict(), name, cols...)
}

// NewWithDict creates an empty relation interning its strings into d, so
// several relations (e.g. the two sides of a record-linkage run) share one
// code space.
func NewWithDict(d *Dict, name string, cols ...string) *Relation {
	sch := NewSchema(cols...)
	// Bare columns of a named relation are qualified by the relation name so
	// joins stay unambiguous.
	if name != "" {
		for i := range sch.Columns {
			if sch.Columns[i].Qualifier == "" {
				sch.Columns[i].Qualifier = name
			}
		}
	}
	return newColumnar(name, sch, d)
}

func newColumnar(name string, sch *Schema, d *Dict) *Relation {
	if d == nil {
		d = NewDict()
	}
	cols := make([]*column, sch.Len())
	for i := range cols {
		cols[i] = &column{}
	}
	return &Relation{Name: name, Schema: sch, dict: d, cols: cols}
}

// NewFromSchema creates an empty relation with an existing schema (shared,
// not copied) and dictionary; it is the constructor for derived relations —
// filters, joins, projections — that inherit their source's code space.
func NewFromSchema(name string, sch *Schema, d *Dict) *Relation {
	return newColumnar(name, sch, d)
}

// Dict returns the relation's string dictionary.
func (r *Relation) Dict() *Dict { return r.dict }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.nrows }

// At returns the cell at row i, column j.
func (r *Relation) At(i, j int) Value { return r.cols[j].get(r.dict, i) }

// Row materializes row i as a fresh Tuple.
func (r *Relation) Row(i int) Tuple {
	return r.RowInto(make(Tuple, len(r.cols)), i)
}

// RowInto materializes row i into buf (grown if needed) and returns it;
// loops that only read one row at a time can reuse the buffer.
func (r *Relation) RowInto(buf Tuple, i int) Tuple {
	if cap(buf) < len(r.cols) {
		buf = make(Tuple, len(r.cols))
	}
	buf = buf[:len(r.cols)]
	for j, c := range r.cols {
		buf[j] = c.get(r.dict, i)
	}
	return buf
}

// Tuples materializes every row. It is a migration and debugging
// convenience for cold paths; hot paths should iterate with RowInto or At.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.nrows)
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

// AppendRow adds a materialized row. It panics on arity mismatch — rows are
// built by generators and loaders that control the schema. The tuple is
// copied into the columns; callers may reuse it.
func (r *Relation) AppendRow(t Tuple) *Relation {
	if len(t) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: AppendRow arity %d != schema arity %d", r.Name, len(t), len(r.cols)))
	}
	for j, v := range t {
		r.cols[j].append(r.dict, r.nrows, v)
	}
	r.nrows++
	return r
}

// Append adds a row built from Go values (string, int, int64, float64, bool,
// Value, or nil for NULL). It panics on arity mismatch.
func (r *Relation) Append(vals ...any) *Relation {
	if len(vals) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: Append arity %d != schema arity %d", r.Name, len(vals), len(r.cols)))
	}
	for j, v := range vals {
		r.cols[j].append(r.dict, r.nrows, ToValue(v))
	}
	r.nrows++
	return r
}

// Set overwrites the cell at row i, column j.
func (r *Relation) Set(i, j int, v Value) {
	r.cols[j].set(r.dict, i, r.nrows, v)
}

// Select builds a new relation holding the given row positions, in order.
// It shares the schema and dictionary, and copies typed column segments
// directly — no Value boxing, no re-interning.
func (r *Relation) Select(rows []int) *Relation {
	out := &Relation{Name: r.Name, Schema: r.Schema, dict: r.dict, nrows: len(rows)}
	out.cols = make([]*column, len(r.cols))
	for j, c := range r.cols {
		out.cols[j] = c.gather(rows)
	}
	return out
}

// WithSchema returns a zero-copy view of the relation under a different
// name and schema (e.g. an alias requalification below a join). The view
// shares column storage: neither the view nor the base may be appended to
// afterwards.
func (r *Relation) WithSchema(name string, sch *Schema) *Relation {
	return &Relation{Name: name, Schema: sch, dict: r.dict, cols: r.cols, nrows: r.nrows}
}

// ToValue converts a native Go value to a Value.
func ToValue(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null()
	case Value:
		return x
	case string:
		return String(x)
	case int:
		return Int(int64(x))
	case int64:
		return Int(x)
	case float64:
		return Float(x)
	case bool:
		return Bool(x)
	default:
		return String(fmt.Sprint(x))
	}
}

// ColumnNames returns the bare (unqualified) column names.
func (r *Relation) ColumnNames() []string {
	out := make([]string, r.Schema.Len())
	for i, c := range r.Schema.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone deep-copies the relation's storage. The dictionary is shared — it
// is append-only, so clones remain independent.
func (r *Relation) Clone() *Relation {
	out := &Relation{
		Name:   r.Name,
		Schema: &Schema{Columns: append([]Column(nil), r.Schema.Columns...)},
		dict:   r.dict,
		nrows:  r.nrows,
	}
	out.cols = make([]*column, len(r.cols))
	for j, c := range r.cols {
		out.cols[j] = c.clone()
	}
	return out
}

// Column returns the values of one column by reference name.
func (r *Relation) Column(ref string) ([]Value, error) {
	i, err := r.Schema.Index(ref)
	if err != nil {
		return nil, err
	}
	out := make([]Value, r.nrows)
	for j := range out {
		out[j] = r.cols[i].get(r.dict, j)
	}
	return out, nil
}

// NumericOnly reports whether every non-NULL cell of column j is numeric
// (an all-NULL column counts as numeric-only). Homogeneous columns answer
// in O(1); only the boxed heterogeneous fallback scans.
func (r *Relation) NumericOnly(j int) bool {
	c := r.cols[j]
	if c.mixed != nil {
		for _, v := range c.mixed {
			if !v.IsNull() && !v.IsNumeric() {
				return false
			}
		}
		return true
	}
	switch c.kind {
	case KindNull, KindInt, KindFloat:
		return true
	default:
		return false
	}
}

// CellCode returns the dictionary code of the cell's display string and
// whether the cell is non-NULL. String cells of homogeneous columns return
// their stored code without materializing; other kinds intern their
// rendering (deduplicated by the dictionary).
func (r *Relation) CellCode(i, j int) (uint32, bool) {
	c := r.cols[j]
	if c.mixed == nil && c.kind == KindString {
		if s, off := c.seg(i); !bitGet(s.nulls, off) {
			return s.codes[off], true
		}
	}
	v := c.get(r.dict, i)
	if v.IsNull() {
		return 0, false
	}
	return r.dict.Intern(v.String()), true
}

// String renders a small ASCII table (up to 25 rows) for debugging and
// example output.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d rows]\n", r.Name, r.Schema, r.nrows)
	limit := r.nrows
	const maxShow = 25
	if limit > maxShow {
		limit = maxShow
	}
	for i := 0; i < limit; i++ {
		cells := make([]string, len(r.cols))
		for j := range r.cols {
			cells[j] = r.At(i, j).String()
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(cells, " | "))
	}
	if r.nrows > limit {
		fmt.Fprintf(&b, "  ... (%d more)\n", r.nrows-limit)
	}
	return b.String()
}

// Database is a named collection of relations.
type Database struct {
	Name      string
	relations map[string]*Relation
	order     []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, relations: make(map[string]*Relation)}
}

// Add registers a relation; it replaces any prior relation of the same name.
func (d *Database) Add(r *Relation) *Database {
	key := strings.ToLower(r.Name)
	if _, exists := d.relations[key]; !exists {
		d.order = append(d.order, key)
	}
	d.relations[key] = r
	return d
}

// Relation looks a relation up by case-insensitive name.
func (d *Database) Relation(name string) (*Relation, error) {
	r, ok := d.relations[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("relation: database %q has no relation %q", d.Name, name)
	}
	return r, nil
}

// Relations returns all relations in registration order.
func (d *Database) Relations() []*Relation {
	out := make([]*Relation, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.relations[k])
	}
	return out
}

// FreezeDicts does nothing: a dictionary has one read path, its lock.
//
// Deprecated: kept only because the benchmark harness
// (cmd/e3bench/servedelta.go) still calls it; the method goes with the
// next change to the benchmark.
func (d *Database) FreezeDicts() {}

// TotalRows sums row counts over all relations (the paper's N statistic).
func (d *Database) TotalRows() int {
	n := 0
	for _, r := range d.relations {
		n += r.Len()
	}
	return n
}
