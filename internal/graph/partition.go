package graph

import (
	"fmt"
	"slices"
)

// partitionOptions tunes the multilevel partitioner.
type partitionOptions struct {
	// lmax is the balance bound: the total node weight of a part must not
	// exceed it (Problem 2's |T1,i|+|T2,j| ≤ Lmax).
	lmax int
	// k is the target number of parts; more parts are opened when capacity
	// requires it, fewer when the graph is small.
	k int
}

// refinePasses bounds FM refinement passes per level.
const refinePasses = 8

// partition assigns every node to a part such that each part's node weight
// is at most lmax, heuristically minimizing the cut weight (the Graph
// Partitioning Problem of Section 4). It returns part indexes per node.
// Nodes whose individual weight exceeds lmax get a dedicated part (they
// cannot be split at this level; the caller created them knowingly).
func partition(g *graph, opt partitionOptions) ([]int, error) {
	if opt.k < 1 {
		opt.k = 1
	}
	if opt.lmax < 1 {
		return nil, fmt.Errorf("graph: partition requires lmax ≥ 1, got %d", opt.lmax)
	}
	if len(g.nodeWeight) == 0 {
		return nil, nil
	}
	// Multilevel coarsening.
	levels := []*graph{g}
	var maps [][]int // maps[i][node in levels[i]] = node in levels[i+1]
	cur := g
	coarsenTo := max(64, 4*opt.k) // stop coarsening at this many nodes
	for len(cur.nodeWeight) > coarsenTo {
		coarse, toCoarse := coarsen(cur, opt.lmax)
		if len(coarse.nodeWeight) >= len(cur.nodeWeight) {
			break // no progress (e.g. matching blocked by weights)
		}
		levels = append(levels, coarse)
		maps = append(maps, toCoarse)
		cur = coarse
	}
	// Initial partition on the coarsest level; it opens at most one part
	// per node, which bounds the part ids every level sees.
	s := newPartScores(len(cur.nodeWeight))
	part := initialPartition(cur, opt, s)
	refine(cur, part, opt, s)
	// Uncoarsen with refinement at every level.
	for lvl := len(maps) - 1; lvl >= 0; lvl-- {
		finePart := make([]int, len(maps[lvl]))
		for v, cv := range maps[lvl] {
			finePart[v] = part[cv]
		}
		part = finePart
		refine(levels[lvl], part, opt, s)
	}
	return part, nil
}

// coarsen performs one level of heavy-edge matching: each unmatched node
// merges with its unmatched neighbor of maximum edge weight, provided the
// merged weight stays within lmax.
func coarsen(g *graph, lmax int) (*graph, []int) {
	n := len(g.nodeWeight)
	// Visit nodes in increasing degree order, ties by id (a stable counting
	// sort): low-degree nodes have fewer options, matching them first
	// improves match quality.
	at := make([]int, n+1)
	for u := 0; u < n; u++ {
		at[g.degree(u)+1]++
	}
	for d := 0; d < n; d++ {
		at[d+1] += at[d]
	}
	order := make([]int, n)
	for u := 0; u < n; u++ {
		d := g.degree(u)
		order[at[d]] = u
		at[d]++
	}
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		// The first neighbour of strictly greatest positive weight wins; a
		// node with none is matched with itself.
		best, bestW := u, 0.0
		nbr, wgt := g.nbrs(u)
		for i, v := range nbr {
			if match[v] < 0 && g.nodeWeight[u]+g.nodeWeight[v] <= lmax && wgt[i] > bestW {
				best, bestW = v, wgt[i]
			}
		}
		match[u], match[best] = best, u
	}
	// A coarse node is numbered when the smaller of its pair is visited.
	toCoarse := make([]int, n)
	next := 0
	for _, u := range order {
		if v := match[u]; u <= v {
			toCoarse[u], toCoarse[v] = next, next
			next++
		}
	}
	weight := make([]int, next)
	var arcs []arc
	for u := 0; u < n; u++ {
		cu := toCoarse[u]
		weight[cu] += g.nodeWeight[u]
		nbr, wgt := g.nbrs(u)
		for i, v := range nbr {
			if cv := toCoarse[v]; cu < cv {
				arcs = append(arcs, arc{cu, cv, wgt[i]})
			}
		}
	}
	return newGraph(weight, arcs), toCoarse
}

// partScores accumulates one node's connecting weight to each adjacent
// part. score is all zero between nodes; touched lists the parts scored so
// far, seen marks them.
type partScores struct {
	score   []float64
	seen    []bool
	touched []int
}

func newPartScores(nParts int) *partScores {
	return &partScores{score: make([]float64, nParts), seen: make([]bool, nParts)}
}

func (s *partScores) add(p int, w float64) {
	if !s.seen[p] {
		s.seen[p] = true
		s.touched = append(s.touched, p)
	}
	s.score[p] += w
}

// parts returns the touched parts in increasing index, so that ties
// resolve the same way on every run.
func (s *partScores) parts() []int {
	slices.Sort(s.touched)
	return s.touched
}

func (s *partScores) reset() {
	for _, p := range s.touched {
		s.score[p], s.seen[p] = 0, false
	}
	s.touched = s.touched[:0]
}

// initialPartition grows parts greedily: nodes are visited in BFS order
// from arbitrary seeds; each node goes to the adjacent part with the most
// connecting weight that still has capacity, else to the lightest part
// with capacity, else to a new part.
func initialPartition(g *graph, opt partitionOptions, s *partScores) []int {
	n := len(g.nodeWeight)
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	var load []int
	place := func(u int) {
		nw := g.nodeWeight[u]
		nbr, wgt := g.nbrs(u)
		for i, v := range nbr {
			if p := part[v]; p >= 0 {
				s.add(p, wgt[i])
			}
		}
		bestPart, bestScore := -1, 0.0
		for _, p := range s.parts() {
			if load[p]+nw <= opt.lmax && s.score[p] > bestScore {
				bestPart, bestScore = p, s.score[p]
			}
		}
		s.reset()
		if bestPart < 0 {
			// Lightest existing part with room, if we are at or above the
			// target part count; otherwise open a new one.
			if len(load) >= opt.k {
				lightest, lw := -1, 0
				for p, l := range load {
					if l+nw <= opt.lmax && (lightest < 0 || l < lw) {
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
		load[bestPart] += nw
	}
	// BFS from each unvisited seed so parts grow contiguously.
	queue := make([]int, 0, n)
	for seed := 0; seed < n; seed++ {
		if part[seed] >= 0 {
			continue
		}
		queue = append(queue[:0], seed)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if part[u] >= 0 {
				continue
			}
			place(u)
			nbr, _ := g.nbrs(u)
			for _, v := range nbr {
				if part[v] < 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	return part
}

// refine runs FM-style boundary passes: move a node to an adjacent part
// when that strictly reduces the cut and respects capacity.
func refine(g *graph, part []int, opt partitionOptions, s *partScores) {
	nParts := 0
	for _, p := range part {
		nParts = max(nParts, p+1)
	}
	load := make([]int, nParts)
	for u, p := range part {
		load[p] += g.nodeWeight[u]
	}
	for pass := 0; pass < refinePasses; pass++ {
		improved := false
		for u, from := range part {
			nw := g.nodeWeight[u]
			nbr, wgt := g.nbrs(u)
			for i, v := range nbr {
				s.add(part[v], wgt[i])
			}
			// Near-ties (within the 1e-12 gain tolerance) go to the first
			// part in increasing index that clears it.
			bestPart, bestGain := from, 0.0
			for _, p := range s.parts() {
				if p == from || load[p]+nw > opt.lmax {
					continue
				}
				if gain := s.score[p] - s.score[from]; gain > bestGain+1e-12 {
					bestPart, bestGain = p, gain
				}
			}
			s.reset()
			if bestPart != from && bestGain > 1e-12 {
				load[from] -= nw
				load[bestPart] += nw
				part[u] = bestPart
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}
