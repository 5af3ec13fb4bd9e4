package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, ""},
		{String("abc"), KindString, "abc"},
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{Float(3), KindFloat, "3.0"},
		{Bool(true), KindBool, "true"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind(%v) = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.str)
		}
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL = NULL should be false under predicate semantics")
	}
	if Null().Equal(Int(0)) || Int(0).Equal(Null()) {
		t.Error("NULL should not equal any value")
	}
	if !Null().Identical(Null()) {
		t.Error("NULL should be Identical to NULL (grouping semantics)")
	}
}

func TestValueNumericCrossKind(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("2 should equal 2.0")
	}
	c, ok := Int(1).Compare(Float(1.5))
	if !ok || c != -1 {
		t.Errorf("1 vs 1.5 compare = (%d,%v), want (-1,true)", c, ok)
	}
	if Int(2).Key() != Float(2.0).Key() {
		t.Error("2 and 2.0 should share a grouping key")
	}
}

func TestValueCompareStrings(t *testing.T) {
	c, ok := String("a").Compare(String("b"))
	if !ok || c != -1 {
		t.Errorf(`"a" vs "b" = (%d,%v), want (-1,true)`, c, ok)
	}
	// String that parses as a number compares numerically with numbers.
	c, ok = String("10").Compare(Int(9))
	if !ok || c != 1 {
		t.Errorf(`"10" vs 9 = (%d,%v), want (1,true)`, c, ok)
	}
	if _, ok := String("xyz").Compare(Int(1)); ok {
		t.Error("non-numeric string vs int should be incomparable")
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"", Null()},
		{"  ", Null()},
		{"7", Int(7)},
		{"-3", Int(-3)},
		{"2.25", Float(2.25)},
		{"true", Bool(true)},
		{"FALSE", Bool(false)},
		{"hello world", String("hello world")},
	}
	for _, c := range cases {
		got := ParseValue(c.in)
		if !got.Identical(c.want) {
			t.Errorf("ParseValue(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := String("3.5").AsFloat(); !ok || f != 3.5 {
		t.Errorf(`AsFloat("3.5") = (%v,%v)`, f, ok)
	}
	if _, ok := String("nope").AsFloat(); ok {
		t.Error(`AsFloat("nope") should fail`)
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Errorf("AsFloat(true) = (%v,%v)", f, ok)
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("AsFloat(NULL) should fail")
	}
}

// Property: Compare is antisymmetric and Identical is reflexive for
// arbitrary int/float/string values.
func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		c1, ok1 := va.Compare(vb)
		c2, ok2 := vb.Compare(va)
		return ok1 && ok2 && c1 == -c2 && va.Identical(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key distinguishes distinct ints and equates equal numerics.
func TestValueKeyInjectiveOnInts(t *testing.T) {
	f := func(a, b int32) bool {
		ka, kb := Int(int64(a)).Key(), Int(int64(b)).Key()
		if a == b {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatKeyGrouping(t *testing.T) {
	if Float(math.Pi).Key() == Float(math.E).Key() {
		t.Error("distinct non-integral floats must have distinct keys")
	}
}

// TestAppendStringMatchesString checks AppendString against String on
// every kind, including float renderings on both sides of the 1e15
// integral cut-off and non-finite values.
func TestAppendStringMatchesString(t *testing.T) {
	for _, v := range []Value{
		Null(), String(""), String("a / b\n"), Int(0), Int(-42), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(2.5), Float(3), Float(-1e14), Float(1e15), Float(1e21),
		Float(1e-7), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Bool(true), Bool(false),
	} {
		if got := string(v.AppendString([]byte("x"))); got != "x"+v.String() {
			t.Errorf("AppendString(%#v) = %q, want %q", v, got, "x"+v.String())
		}
	}
}
