package query

import "explain3d/internal/relation"

// grouper is DISTINCT's and GROUP BY's key table: At(keys, i) returns the
// dense id of row i's key (first-appearance order) and whether this call
// created it. Production runs relation.GroupTable; the flat≡map
// differential tests swap in the retired map[uint64][]int32 table
// (mapGroups) through newGrouper.
type grouper interface {
	At(keys [][]relation.CellKey, i int) (int32, bool)
}

var newGrouper = func(rows int) grouper { return relation.NewGroupTable(rows) }
