package graph

import (
	"fmt"
	"sort"
)

// Bipartite is the tuple-match graph G = (T1, T2, Mtuple): left nodes are
// canonical tuples of the first query, right nodes of the second, and each
// edge is an initial tuple match with probability P.
type Bipartite struct {
	NLeft  int
	NRight int
	Edges  []BEdge
}

// BEdge is one tuple match. L indexes the left side [0, NLeft); R the right
// side [0, NRight).
type BEdge struct {
	L, R int
	P    float64
}

// NewBipartite creates an empty match graph.
func NewBipartite(nLeft, nRight int) *Bipartite {
	return &Bipartite{NLeft: nLeft, NRight: nRight}
}

// AddMatch appends a tuple match.
func (b *Bipartite) AddMatch(l, r int, p float64) {
	b.Edges = append(b.Edges, BEdge{L: l, R: r, P: p})
}

// Size returns the total node count; node ids are left nodes followed by
// right nodes (right node r has id NLeft + r).
func (b *Bipartite) Size() int { return b.NLeft + b.NRight }

// RightID converts a right index to a global node id.
func (b *Bipartite) RightID(r int) int { return b.NLeft + r }

// ToGraph materializes the match graph with unit node weights and edge
// weights transformed by the given function (identity when nil).
func (b *Bipartite) ToGraph(weight func(p float64) float64) *Graph {
	g := New(b.Size())
	for _, e := range b.Edges {
		w := e.P
		if weight != nil {
			w = weight(e.P)
		}
		g.AddEdge(e.L, b.RightID(e.R), w)
	}
	return g
}

// ConnectedComponents returns components as global node id sets.
func (b *Bipartite) ConnectedComponents() [][]int {
	return b.ToGraph(nil).ConnectedComponents()
}

// The paper's fixed partitioning parameters: matches with p ≥ thetaHigh
// are merged before partitioning, and edge weights are scaled by weightR
// above thetaHigh and below thetaLow.
const (
	thetaLow  = 0.1
	thetaHigh = 0.9
	weightR   = 100
)

// SmartOptions configures Algorithms 2 and 3.
type SmartOptions struct {
	// BatchSize is the maximum partition size Lmax; the number of parts is
	// k = ceil((|T1|+|T2|)/BatchSize) as in Section 5.3.
	BatchSize int
}

// DefaultSmartOptions returns the options for the given batch size.
func DefaultSmartOptions(batchSize int) SmartOptions {
	return SmartOptions{BatchSize: batchSize}
}

// adjustedWeight implements the paper's edge re-weighting: high-probability
// matches are rewarded by R, low-probability matches penalized by R, so the
// partitioner avoids cutting edges that almost surely belong to the
// evidence mapping.
func adjustedWeight(p float64) float64 {
	switch {
	case p >= thetaHigh:
		return p * weightR
	case p <= thetaLow:
		return p / weightR
	default:
		return p
	}
}

// PrePartitionResult is the coarse graph of Algorithm 2 together with the
// merge bookkeeping.
type PrePartitionResult struct {
	// Coarse is the merged graph Gc = (C1, C2, Mc) with adjusted edge
	// weights between super-nodes.
	Coarse *Graph
	// NodeMap maps every original global node id to its super-node.
	NodeMap []int
	// Members lists original node ids per super-node.
	Members [][]int
}

// PrePartition implements Algorithm 2: tuples connected by matches with
// p ≥ θh are merged into super-nodes via DFS over high-probability edges;
// the remaining matches become edges between super-nodes with adjusted
// weights.
func PrePartition(b *Bipartite) *PrePartitionResult {
	n := b.Size()
	// High-probability adjacency only.
	high := make([][]int, n)
	for _, e := range b.Edges {
		if e.P >= thetaHigh {
			u, v := e.L, b.RightID(e.R)
			high[u] = append(high[u], v)
			high[v] = append(high[v], u)
		}
	}
	nodeMap := make([]int, n)
	for i := range nodeMap {
		nodeMap[i] = -1
	}
	var members [][]int
	stack := make([]int, 0, 16)
	for s := 0; s < n; s++ {
		if nodeMap[s] >= 0 {
			continue
		}
		id := len(members)
		var group []int
		stack = append(stack[:0], s)
		nodeMap[s] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			group = append(group, u)
			for _, v := range high[u] {
				if nodeMap[v] < 0 {
					nodeMap[v] = id
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(group)
		members = append(members, group)
	}
	coarse := New(len(members))
	for i, g := range members {
		coarse.NodeWeight[i] = len(g)
	}
	for _, e := range b.Edges {
		cu, cv := nodeMap[e.L], nodeMap[b.RightID(e.R)]
		if cu == cv {
			continue
		}
		coarse.AddEdge(cu, cv, adjustedWeight(e.P))
	}
	return &PrePartitionResult{Coarse: coarse, NodeMap: nodeMap, Members: members}
}

// SmartPartition implements Algorithm 3 with locality-preserving packing:
// pre-partition, split each oversized connected component of the coarse
// graph with the multilevel partitioner, then pack whole components into
// batches in original-node-id order under the Lmax bound. Packing never
// cuts an edge between components (there are none), so the only severed
// matches are those the per-component splits cut — no worse than running
// the partitioner on the whole coarse graph — and batch membership tracks
// tuple locality: a delta touching a narrow id range dirties few batches,
// which the incremental re-solve path exploits. The result is a list of
// partitions, each a sorted list of global node ids. Super-nodes heavier
// than the batch size become their own partition (they cannot be split
// without cutting a high-probability match).
func SmartPartition(b *Bipartite, opt SmartOptions) ([][]int, error) {
	if opt.BatchSize < 1 {
		return nil, fmt.Errorf("graph: SmartPartition requires BatchSize ≥ 1, got %d", opt.BatchSize)
	}
	pre := PrePartition(b)
	coarse := pre.Coarse

	// A packing unit is a set of coarse nodes no batch boundary may cut,
	// expanded to sorted original node ids.
	type unit struct {
		weight int
		nodes  []int
	}
	var units []unit
	addUnit := func(coarseNodes []int) {
		w := 0
		var nodes []int
		for _, cn := range coarseNodes {
			w += coarse.NodeWeight[cn]
			nodes = append(nodes, pre.Members[cn]...)
		}
		sort.Ints(nodes)
		units = append(units, unit{weight: w, nodes: nodes})
	}
	for _, comp := range coarse.ConnectedComponents() {
		w := 0
		for _, cn := range comp {
			w += coarse.NodeWeight[cn]
		}
		if w <= opt.BatchSize || len(comp) == 1 {
			addUnit(comp)
			continue
		}
		// Oversized component: split it alone under the balance bound,
		// minimizing the severed match weight within the component.
		parts, err := splitComponent(coarse, comp, opt.BatchSize)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			addUnit(part)
		}
	}
	// Units come out ordered by smallest original member; a sequential
	// first-fit then yields batches whose id spans follow that order.
	sort.Slice(units, func(i, j int) bool { return units[i].nodes[0] < units[j].nodes[0] })
	var out [][]int
	var cur []int
	curW := 0
	for _, u := range units {
		if curW > 0 && curW+u.weight > opt.BatchSize {
			sort.Ints(cur)
			out = append(out, cur)
			cur, curW = nil, 0
		}
		cur = append(cur, u.nodes...)
		curW += u.weight
	}
	if len(cur) > 0 {
		sort.Ints(cur)
		out = append(out, cur)
	}
	return out, nil
}

// splitComponent partitions one oversized coarse component under the batch
// bound and returns groups of coarse node ids, ordered by part index.
func splitComponent(coarse *Graph, comp []int, batch int) ([][]int, error) {
	local := New(len(comp))
	idx := make(map[int]int, len(comp))
	w := 0
	for i, cn := range comp {
		idx[cn] = i
		local.NodeWeight[i] = coarse.NodeWeight[cn]
		w += coarse.NodeWeight[cn]
	}
	for i, cn := range comp {
		for _, e := range coarse.Neighbors(cn) {
			if j, ok := idx[e.To]; ok && j > i {
				local.AddEdge(i, j, e.Weight)
			}
		}
	}
	k := (w + batch - 1) / batch
	part, err := Partition(local, PartitionOptions{LMax: batch, K: k})
	if err != nil {
		return nil, err
	}
	groups := make(map[int][]int)
	for i, p := range part {
		groups[p] = append(groups[p], comp[i])
	}
	keys := make([]int, 0, len(groups))
	for p := range groups {
		keys = append(keys, p)
	}
	sort.Ints(keys)
	out := make([][]int, 0, len(keys))
	for _, p := range keys {
		out = append(out, groups[p])
	}
	return out, nil
}
