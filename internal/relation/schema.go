package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation. Qualifier is the relation
// (or alias) name the column belongs to; it is what lets attribute matches
// such as Movie.title resolve against join results.
type Column struct {
	Qualifier string
	Name      string
}

// QualifiedName renders "qualifier.name", or just the name when unqualified.
func (c Column) QualifiedName() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from "qualifier.name" or bare "name" strings.
func NewSchema(names ...string) *Schema {
	s := &Schema{Columns: make([]Column, 0, len(names))}
	for _, n := range names {
		s.Columns = append(s.Columns, parseColumnRef(n))
	}
	return s
}

func parseColumnRef(n string) Column {
	if i := strings.LastIndex(n, "."); i >= 0 {
		return Column{Qualifier: n[:i], Name: n[i+1:]}
	}
	return Column{Name: n}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Names returns the qualified names of all columns, in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.QualifiedName()
	}
	return out
}

// Index resolves a column reference, which may be qualified ("m.title") or
// bare ("title"). A bare reference is ambiguous if it matches columns under
// multiple qualifiers.
func (s *Schema) Index(ref string) (int, error) {
	want := parseColumnRef(ref)
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, want.Name) {
			continue
		}
		if want.Qualifier != "" && !strings.EqualFold(c.Qualifier, want.Qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("relation: ambiguous column reference %q (matches %s and %s)",
				ref, s.Columns[found].QualifiedName(), c.QualifiedName())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("relation: unknown column %q (have %s)", ref, strings.Join(s.Names(), ", "))
	}
	return found, nil
}

// MustIndex is Index but panics on error; for schemas known statically.
func (s *Schema) MustIndex(ref string) int {
	i, err := s.Index(ref)
	if err != nil {
		panic(err)
	}
	return i
}

// WithQualifier returns a copy of the schema with every column re-qualified.
func (s *Schema) WithQualifier(q string) *Schema {
	out := &Schema{Columns: make([]Column, len(s.Columns))}
	for i, c := range s.Columns {
		out.Columns[i] = Column{Qualifier: q, Name: c.Name}
	}
	return out
}

// Concat returns a schema holding this schema's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Columns: make([]Column, 0, len(s.Columns)+len(o.Columns))}
	out.Columns = append(out.Columns, s.Columns...)
	out.Columns = append(out.Columns, o.Columns...)
	return out
}

// String renders the schema as "(a, b, c)".
func (s *Schema) String() string {
	return "(" + strings.Join(s.Names(), ", ") + ")"
}
