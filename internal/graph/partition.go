package graph

import (
	"fmt"
	"sort"
)

// PartitionOptions tunes the multilevel partitioner.
type PartitionOptions struct {
	// LMax is the balance bound: the total node weight of a part must not
	// exceed it (Problem 2's |T1,i|+|T2,j| ≤ Lmax).
	LMax int
	// K is the target number of parts; more parts are opened when capacity
	// requires it, fewer when the graph is small.
	K int
}

// refinePasses bounds FM refinement passes per level.
const refinePasses = 8

// Partition assigns every node to a part such that each part's node weight
// is at most LMax, heuristically minimizing the cut weight (the Graph
// Partitioning Problem of Section 4). It returns part indexes per node.
// Nodes whose individual weight exceeds LMax get a dedicated part (they
// cannot be split at this level; the caller created them knowingly).
func Partition(g *Graph, opt PartitionOptions) ([]int, error) {
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
	levels := []*Graph{g}
	var maps [][]int // maps[i][node in levels[i]] = node in levels[i+1]
	cur := g
	coarsenTo := max(64, 4*opt.K) // stop coarsening at this many nodes
	for cur.Len() > coarsenTo {
		coarse, toCoarse := coarsen(cur, opt.LMax)
		if coarse.Len() >= cur.Len() {
			break // no progress (e.g. matching blocked by weights)
		}
		levels = append(levels, coarse)
		maps = append(maps, toCoarse)
		cur = coarse
	}
	// Initial partition on the coarsest level.
	part := initialPartition(cur, opt)
	refine(cur, part, opt)
	// Uncoarsen with refinement at every level.
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		fine := levels[lvl]
		finePart := make([]int, fine.Len())
		for v := 0; v < fine.Len(); v++ {
			finePart[v] = part[maps[lvl][v]]
		}
		part = finePart
		refine(fine, part, opt)
	}
	return part, nil
}

// coarsen performs one level of heavy-edge matching: each unmatched node
// merges with its unmatched neighbor of maximum edge weight, provided the
// merged weight stays within lmax.
func coarsen(g *Graph, lmax int) (*Graph, []int) {
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
	coarse := New(next)
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

// initialPartition grows parts greedily: nodes are visited in BFS order
// from arbitrary seeds; each node goes to the adjacent part with the most
// connecting weight that still has capacity, else to the lightest part
// with capacity, else to a new part.
func initialPartition(g *Graph, opt PartitionOptions) []int {
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

// refine runs FM-style boundary passes: move a node to an adjacent part
// when that strictly reduces the cut and respects capacity.
func refine(g *Graph, part []int, opt PartitionOptions) {
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
