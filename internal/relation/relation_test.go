package relation

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Relation {
	r := New("Major", "Major", "Degree", "School")
	r.Append("Accounting", "B.S.", "Business")
	r.Append("CS", "B.A.", "CompSci")
	r.Append("CS", "B.S.", "CompSci")
	return r
}

func TestSchemaIndexQualified(t *testing.T) {
	r := sample()
	i, err := r.Schema.Index("Major.Degree")
	if err != nil || i != 1 {
		t.Fatalf("Index(Major.Degree) = (%d,%v), want (1,nil)", i, err)
	}
	i, err = r.Schema.Index("degree")
	if err != nil || i != 1 {
		t.Fatalf("Index(degree) = (%d,%v), want (1,nil)", i, err)
	}
	if _, err := r.Schema.Index("nope"); err == nil {
		t.Fatal("Index(nope) should fail")
	}
}

func TestSchemaAmbiguity(t *testing.T) {
	s := NewSchema("a.x", "b.x")
	if _, err := s.Index("x"); err == nil {
		t.Fatal("bare x over a.x and b.x should be ambiguous")
	}
	if i, err := s.Index("b.x"); err != nil || i != 1 {
		t.Fatalf("Index(b.x) = (%d,%v)", i, err)
	}
}

func TestSchemaConcat(t *testing.T) {
	s := NewSchema("t.a", "t.b", "t.c")
	u := NewSchema("u.z")
	cat := s.Concat(u)
	if cat.Len() != 4 || cat.Names()[3] != "u.z" {
		t.Fatalf("Concat = %v", cat.Names())
	}
}

func TestRelationAppendAndColumn(t *testing.T) {
	r := sample()
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	col, err := r.Column("Major")
	if err != nil {
		t.Fatal(err)
	}
	if col[1].Str() != "CS" {
		t.Fatalf("Column(Major)[1] = %v", col[1])
	}
}

func TestRelationClone(t *testing.T) {
	r := sample()
	c := r.Clone()
	c.Set(0, 0, String("mutated"))
	if r.At(0, 0).Str() != "Accounting" {
		t.Fatal("Clone must deep-copy storage")
	}
	if c.At(0, 0).Str() != "mutated" {
		t.Fatal("Set on the clone must stick")
	}
}

func TestDatabaseLookup(t *testing.T) {
	db := NewDatabase("D1")
	db.Add(sample())
	r, err := db.Relation("major")
	if err != nil || r.Name != "Major" {
		t.Fatalf("Relation(major) = (%v,%v)", r, err)
	}
	if _, err := db.Relation("missing"); err == nil {
		t.Fatal("missing relation should error")
	}
	if db.TotalRows() != 3 {
		t.Fatalf("TotalRows = %d", db.TotalRows())
	}
	if len(db.Relations()) != 1 {
		t.Fatalf("Relations len = %d", len(db.Relations()))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := sample()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("Major", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() {
		t.Fatalf("round trip rows = %d, want %d", got.Len(), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < r.Schema.Len(); j++ {
			if !got.At(i, j).Identical(r.At(i, j)) {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, got.At(i, j), r.At(i, j))
			}
		}
	}
}

func TestCSVTypeInference(t *testing.T) {
	in := "id,score,name\n1,2.5,alpha\n2,,beta\n"
	r, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r.At(0, 0).Kind() != KindInt || r.At(0, 1).Kind() != KindFloat || r.At(0, 2).Kind() != KindString {
		t.Fatalf("kinds = %v %v %v", r.At(0, 0).Kind(), r.At(0, 1).Kind(), r.At(0, 2).Kind())
	}
	if !r.At(1, 1).IsNull() {
		t.Fatal("empty cell should be NULL")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Fatal("empty CSV should fail on header")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("short row should fail")
	}
}

func TestTupleKey(t *testing.T) {
	a := Tuple{String("x"), Int(1)}
	b := Tuple{String("x"), Int(1)}
	c := Tuple{String("x"), Int(2)}
	if a.Key([]int{0, 1}) != b.Key([]int{0, 1}) {
		t.Fatal("equal tuples should share keys")
	}
	if a.Key([]int{0, 1}) == c.Key([]int{0, 1}) {
		t.Fatal("distinct tuples should have distinct keys")
	}
	if a.Key([]int{0}) != c.Key([]int{0}) {
		t.Fatal("keys on shared prefix should match")
	}
}

func TestRelationStringTruncates(t *testing.T) {
	r := New("big", "x")
	for i := 0; i < 40; i++ {
		r.Append(int64(i))
	}
	s := r.String()
	if !strings.Contains(s, "more") {
		t.Fatalf("String should truncate long relations: %s", s)
	}
}

// Regression: both ReadCSV error paths must report the same physical row
// under the same 1-based data-row number (the malformed-CSV path used to
// be one behind the field-count path).
func TestCSVRowNumberingConsistent(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"short row 1", "a,b\n3\n", "CSV row 1 "},
		{"short row 2", "a,b\n1,2\n3\n", "CSV row 2 "},
		{"malformed row 1", "a,b\n\"x\" y,3\n", "CSV row 1 "},
		{"malformed row 2", "a,b\n1,2\n\"x\" y,3\n", "CSV row 2 "},
	}
	for _, c := range cases {
		_, err := ReadCSV("t", strings.NewReader(c.in))
		if err == nil {
			t.Fatalf("%s: expected an error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}
