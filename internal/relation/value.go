// Package relation implements the in-memory relational substrate used by the
// explain3d reproduction: typed values, schemas, tuples, relations, and CSV
// import/export. It is deliberately small — just enough relational algebra
// surface for the paper's query class Q = π_o σ_c(X) — but fully typed and
// null-aware so provenance impacts and record-linkage similarities are well
// defined.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the engine.
type Kind int

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindString is a UTF-8 string.
	KindString
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindString:
		return "TEXT"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single typed cell. The zero Value is NULL.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// String wraps a string into a Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int wraps an int64 into a Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float64 into a Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool wraps a bool into a Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload; it is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the float payload; it is only meaningful for KindFloat.
func (v Value) FloatVal() float64 { return v.f }

// BoolVal returns the bool payload; it is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// IsNumeric reports whether the value is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat coerces a numeric or boolean value to float64.
// NULL and strings that do not parse yield (0, false).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// String renders the value for display and CSV export.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		var buf [32]byte
		return string(appendFloat(buf[:0], v.f))
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "?"
	}
}

// AppendString appends the String rendering to dst and returns the extended
// slice. String keeps strconv's Format functions for ints and booleans,
// which return small values without allocating.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return dst
	case KindString:
		return append(dst, v.s...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return appendFloat(dst, v.f)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
	default:
		return append(dst, '?')
	}
}

// appendFloat appends a float's display form: an integral value below 1e15
// keeps one decimal ("2.0"), any other the shortest 'g' form.
func appendFloat(dst []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.AppendFloat(dst, f, 'f', 1, 64)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// Equal reports SQL equality with NULL semantics: NULL equals nothing,
// including NULL. Numeric comparison crosses INT/FLOAT.
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return false
	}
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Identical reports structural identity, where NULL is identical to NULL.
// It is used for grouping keys, which follow GROUP BY semantics rather than
// predicate semantics.
func (v Value) Identical(o Value) bool {
	if v.IsNull() && o.IsNull() {
		return true
	}
	if v.IsNull() != o.IsNull() {
		return false
	}
	c, ok := v.Compare(o)
	if ok {
		return c == 0
	}
	return v.kind == o.kind && v.s == o.s && v.i == o.i && v.f == o.f && v.b == o.b
}

// Compare orders two non-NULL values. It returns ok=false for incomparable
// kinds (e.g. string vs int with a non-numeric string).
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind == KindString && o.kind == KindString {
		return strings.Compare(v.s, o.s), true
	}
	if v.kind == KindBool && o.kind == KindBool {
		switch {
		case v.b == o.b:
			return 0, true
		case !v.b:
			return -1, true
		default:
			return 1, true
		}
	}
	// Mixed string/number: attempt numeric coercion of the string side.
	if v.kind == KindString && o.IsNumeric() {
		if f, ok := v.AsFloat(); ok {
			return Float(f).Compare(o)
		}
	}
	if o.kind == KindString && v.IsNumeric() {
		if f, ok := o.AsFloat(); ok {
			return v.Compare(Float(f))
		}
	}
	return 0, false
}

// Key returns a canonical string encoding used for hashing group-by keys and
// join keys. Distinct values map to distinct keys.
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey appends the Key encoding to dst and returns the extended slice,
// for hot paths that build composite keys without intermediate strings.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "\x00N"...)
	case KindString:
		return append(append(dst, 0, 'S'), v.s...)
	case KindInt:
		return strconv.AppendInt(append(dst, 0, 'I'), v.i, 10)
	case KindFloat:
		// Integral floats hash like ints so 2.0 groups with 2.
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) && math.Abs(v.f) < 1e15 {
			return strconv.AppendInt(append(dst, 0, 'I'), int64(v.f), 10)
		}
		return strconv.AppendFloat(append(dst, 0, 'F'), v.f, 'b', -1, 64)
	case KindBool:
		return strconv.AppendBool(append(dst, 0, 'B'), v.b)
	default:
		return append(dst, 0, '?')
	}
}

// ParseValue infers a Value from raw text (CSV import): integers, floats,
// booleans, empty string → NULL, otherwise string.
func ParseValue(raw string) Value {
	t := strings.TrimSpace(raw)
	if t == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(t) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	return String(raw)
}
