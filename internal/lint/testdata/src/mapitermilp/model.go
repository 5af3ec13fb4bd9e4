// Package milp exercises the mapiter analyzer's model-building rule: it is
// checked under an import path ending in internal/milp, so its Model is
// the one the rule recognizes. Adding variables or constraints inside a
// range over a map orders the model's columns and rows at random.
package milp

import "sort"

// Model stands in for the solver's model.
type Model struct{ vars, rows int }

// AddVar adds a column.
func (m *Model) AddVar(name string) int { m.vars++; return m.vars - 1 }

// AddConstr adds a row.
func (m *Model) AddConstr(terms []int, name string) { m.rows++ }

// Other is a method the rule ignores.
func (m *Model) Other(name string) {}

func varsFromMap(m *Model, names map[string]bool) {
	for name := range names {
		m.AddVar(name) // want `call to \(\*milp.Model\).AddVar inside range over map orders the model's columns or rows at random`
	}
}

func rowsFromMap(m *Model, edges map[int][]int) {
	for _, terms := range edges {
		m.AddConstr(terms, "row") // want `call to \(\*milp.Model\).AddConstr inside range over map`
	}
}

func rowsInOrder(m *Model, edges map[int][]int) {
	keys := make([]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		m.AddConstr(edges[k], "row")
	}
}

func otherCall(m *Model, names map[string]bool) {
	for name := range names {
		m.Other(name)
	}
}
