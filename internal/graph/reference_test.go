package graph

import (
	"fmt"
	"sort"
)

// This file keeps the map-based partitioner that the CSR one replaced,
// verbatim up to names and without the helpers no test calls: refGraph
// stores each node's adjacency as a map[int]float64, Neighbors sorts a
// fresh slice on every call, and refPrePartition, ConnectedComponents and
// the refinement passes build their own maps and sort the keys. It is the
// reference that SmartPartition, partition and newGraph must reproduce
// element for element and weight for weight
// (TestSmartPartitionMatchesReference, FuzzSmartPartition).

// refEdge is one endpoint of an undirected weighted edge.
type refEdge struct {
	To     int
	Weight float64
}

// refGraph is an undirected graph with node and edge weights. Parallel edges
// are merged on AddEdge.
type refGraph struct {
	NodeWeight []int
	adj        []map[int]float64
}

// refNew creates a graph with n nodes of weight 1.
func refNew(n int) *refGraph {
	g := &refGraph{
		NodeWeight: make([]int, n),
		adj:        make([]map[int]float64, n),
	}
	for i := range g.NodeWeight {
		g.NodeWeight[i] = 1
	}
	return g
}

// Len returns the number of nodes.
func (g *refGraph) Len() int { return len(g.NodeWeight) }

// AddEdge adds weight w to the undirected edge (u, v). Self-loops are
// ignored.
func (g *refGraph) AddEdge(u, v int, w float64) {
	if u == v {
		return
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]float64)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]float64)
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// Neighbors returns the sorted adjacency of u.
func (g *refGraph) Neighbors(u int) []refEdge {
	out := make([]refEdge, 0, len(g.adj[u]))
	for v, w := range g.adj[u] {
		out = append(out, refEdge{To: v, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// Degree returns the number of distinct neighbors of u.
func (g *refGraph) Degree(u int) int { return len(g.adj[u]) }

// ConnectedComponents returns the node sets of the maximal connected
// components, each sorted, ordered by smallest member.
func (g *refGraph) ConnectedComponents() [][]int {
	n := g.Len()
	seen := make([]bool, n)
	var comps [][]int
	stack := make([]int, 0, 64)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack = append(stack[:0], s)
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					//lint:ignore mapiter DFS push order cannot reach the output: comp is sorted before return and membership is order-independent
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// refPartitionOptions tunes the multilevel partitioner.
type refPartitionOptions struct {
	// LMax is the balance bound: the total node weight of a part must not
	// exceed it (Problem 2's |T1,i|+|T2,j| ≤ Lmax).
	LMax int
	// K is the target number of parts; more parts are opened when capacity
	// requires it, fewer when the graph is small.
	K int
}

// refPartition assigns every node to a part such that each part's node weight
// is at most LMax, heuristically minimizing the cut weight (the Graph
// Partitioning Problem of Section 4). It returns part indexes per node.
// Nodes whose individual weight exceeds LMax get a dedicated part (they
// cannot be split at this level; the caller created them knowingly).
func refPartition(g *refGraph, opt refPartitionOptions) ([]int, error) {
	if opt.K < 1 {
		opt.K = 1
	}
	if opt.LMax < 1 {
		return nil, fmt.Errorf("graph: Partition requires LMax ≥ 1, got %d", opt.LMax)
	}
	if g.Len() == 0 {
		return nil, nil
	}
	// Multilevel coarsening.
	levels := []*refGraph{g}
	var maps [][]int // maps[i][node in levels[i]] = node in levels[i+1]
	cur := g
	coarsenTo := max(64, 4*opt.K) // stop coarsening at this many nodes
	for cur.Len() > coarsenTo {
		coarse, toCoarse := refCoarsen(cur, opt.LMax)
		if coarse.Len() >= cur.Len() {
			break // no progress (e.g. matching blocked by weights)
		}
		levels = append(levels, coarse)
		maps = append(maps, toCoarse)
		cur = coarse
	}
	// Initial partition on the coarsest level.
	part := refInitialPartition(cur, opt)
	refRefine(cur, part, opt)
	// Uncoarsen with refinement at every level.
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		fine := levels[lvl]
		finePart := make([]int, fine.Len())
		for v := 0; v < fine.Len(); v++ {
			finePart[v] = part[maps[lvl][v]]
		}
		part = finePart
		refRefine(fine, part, opt)
	}
	return part, nil
}

// refCoarsen performs one level of heavy-edge matching: each unmatched node
// merges with its unmatched neighbor of maximum edge weight, provided the
// merged weight stays within lmax.
func refCoarsen(g *refGraph, lmax int) (*refGraph, []int) {
	n := g.Len()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	// Visit nodes in increasing degree order: low-degree nodes have fewer
	// options, matching them first improves match quality.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		best, bestW := -1, 0.0
		for _, e := range g.Neighbors(u) {
			if match[e.To] >= 0 {
				continue
			}
			if g.NodeWeight[u]+g.NodeWeight[e.To] > lmax {
				continue
			}
			if e.Weight > bestW || (e.Weight == bestW && best >= 0 && e.To < best) {
				best, bestW = e.To, e.Weight
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		} else {
			match[u] = u // matched with itself
		}
	}
	toCoarse := make([]int, n)
	next := 0
	for _, u := range order {
		if match[u] == u {
			toCoarse[u] = next
			next++
		} else if match[u] > -1 && u < match[u] {
			toCoarse[u] = next
			toCoarse[match[u]] = next
			next++
		}
	}
	coarse := refNew(next)
	for u := 0; u < n; u++ {
		cu := toCoarse[u]
		if match[u] == u || u < match[u] {
			w := g.NodeWeight[u]
			if match[u] != u {
				w += g.NodeWeight[match[u]]
			}
			coarse.NodeWeight[cu] = w
		}
		for _, e := range g.Neighbors(u) {
			cv := toCoarse[e.To]
			if cu < cv {
				coarse.AddEdge(cu, cv, e.Weight)
			}
		}
	}
	return coarse, toCoarse
}

// refInitialPartition grows parts greedily: nodes are visited in BFS order
// from arbitrary seeds; each node goes to the adjacent part with the most
// connecting weight that still has capacity, else to the lightest part
// with capacity, else to a new part.
func refInitialPartition(g *refGraph, opt refPartitionOptions) []int {
	n := g.Len()
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	var load []int
	place := func(u int) {
		// Score adjacent parts by connecting edge weight. Candidates are
		// visited in increasing part index so ties resolve identically on
		// every run (map iteration order must not leak into the result).
		scores := make(map[int]float64)
		for _, e := range g.Neighbors(u) {
			if p := part[e.To]; p >= 0 {
				scores[p] += e.Weight
			}
		}
		cands := make([]int, 0, len(scores))
		for p := range scores {
			cands = append(cands, p)
		}
		sort.Ints(cands)
		bestPart, bestScore := -1, 0.0
		for _, p := range cands {
			if load[p]+g.NodeWeight[u] > opt.LMax {
				continue
			}
			if s := scores[p]; s > bestScore {
				bestPart, bestScore = p, s
			}
		}
		if bestPart < 0 {
			// Lightest existing part with room, if we are at or above the
			// target part count; otherwise open a new one.
			if len(load) >= opt.K {
				lightest, lw := -1, 0
				for p, l := range load {
					if l+g.NodeWeight[u] <= opt.LMax && (lightest < 0 || l < lw) {
						lightest, lw = p, l
					}
				}
				bestPart = lightest
			}
			if bestPart < 0 {
				load = append(load, 0)
				bestPart = len(load) - 1
			}
		}
		part[u] = bestPart
		load[bestPart] += g.NodeWeight[u]
	}
	// BFS from each unvisited seed so parts grow contiguously.
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if part[s] >= 0 {
			continue
		}
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if part[u] >= 0 {
				continue
			}
			place(u)
			for _, e := range g.Neighbors(u) {
				if part[e.To] < 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	return part
}

// refRefine runs FM-style boundary passes: move a node to an adjacent part
// when that strictly reduces the cut and respects capacity.
func refRefine(g *refGraph, part []int, opt refPartitionOptions) {
	n := g.Len()
	nParts := 0
	for _, p := range part {
		if p+1 > nParts {
			nParts = p + 1
		}
	}
	load := make([]int, nParts)
	for u := 0; u < n; u++ {
		load[part[u]] += g.NodeWeight[u]
	}
	for pass := 0; pass < refinePasses; pass++ {
		improved := false
		for u := 0; u < n; u++ {
			from := part[u]
			// Connection weight to each adjacent part, visited in
			// increasing part index: near-ties (within the 1e-12 gain
			// tolerance) must resolve the same way on every run, so map
			// iteration order cannot be allowed to pick the winner.
			conn := make(map[int]float64)
			for _, e := range g.Neighbors(u) {
				conn[part[e.To]] += e.Weight
			}
			cands := make([]int, 0, len(conn))
			for p := range conn {
				cands = append(cands, p)
			}
			sort.Ints(cands)
			bestPart, bestGain := from, 0.0
			for _, p := range cands {
				if p == from {
					continue
				}
				if load[p]+g.NodeWeight[u] > opt.LMax {
					continue
				}
				gain := conn[p] - conn[from]
				if gain > bestGain+1e-12 {
					bestPart, bestGain = p, gain
				}
			}
			if bestPart != from && bestGain > 1e-12 {
				load[from] -= g.NodeWeight[u]
				load[bestPart] += g.NodeWeight[u]
				part[u] = bestPart
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// refPrePartitionResult is the coarse graph of Algorithm 2 together with the
// merge bookkeeping.
type refPrePartitionResult struct {
	// Coarse is the merged graph Gc = (C1, C2, Mc) with adjusted edge
	// weights between super-nodes.
	Coarse *refGraph
	// NodeMap maps every original global node id to its super-node.
	NodeMap []int
	// Members lists original node ids per super-node.
	Members [][]int
}

// refPrePartition implements Algorithm 2: tuples connected by matches with
// p ≥ θh are merged into super-nodes via DFS over high-probability edges;
// the remaining matches become edges between super-nodes with adjusted
// weights.
func refPrePartition(b *Bipartite) *refPrePartitionResult {
	n := b.size()
	// High-probability adjacency only.
	high := make([][]int, n)
	for _, e := range b.Edges {
		if e.P >= thetaHigh {
			u, v := e.L, b.NLeft+e.R
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
	coarse := refNew(len(members))
	for i, g := range members {
		coarse.NodeWeight[i] = len(g)
	}
	for _, e := range b.Edges {
		cu, cv := nodeMap[e.L], nodeMap[b.NLeft+e.R]
		if cu == cv {
			continue
		}
		coarse.AddEdge(cu, cv, adjustedWeight(e.P))
	}
	return &refPrePartitionResult{Coarse: coarse, NodeMap: nodeMap, Members: members}
}

// refSmartPartition implements Algorithm 3 with locality-preserving packing:
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
func refSmartPartition(b *Bipartite, opt SmartOptions) ([][]int, error) {
	if opt.BatchSize < 1 {
		return nil, fmt.Errorf("graph: SmartPartition requires BatchSize ≥ 1, got %d", opt.BatchSize)
	}
	pre := refPrePartition(b)
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
		parts, err := refSplitComponent(coarse, comp, opt.BatchSize)
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

// refSplitComponent partitions one oversized coarse component under the batch
// bound and returns groups of coarse node ids, ordered by part index.
func refSplitComponent(coarse *refGraph, comp []int, batch int) ([][]int, error) {
	local := refNew(len(comp))
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
	part, err := refPartition(local, refPartitionOptions{LMax: batch, K: k})
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
