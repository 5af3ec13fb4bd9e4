// Package graph provides the graph machinery behind explain3d's
// smart-partitioning optimizer (Section 4 of the paper): the paper's
// pre-partitioning (Algorithm 2), which merges tuples joined by
// high-probability matches into super-nodes, and the smart-partitioning
// driver (Algorithm 3), which splits each oversized connected component of
// the merged graph with a multilevel partitioner in the style of METIS
// (heavy-edge-matching coarsening, greedy initial partitioning, FM boundary
// refinement) and packs the pieces into batches.
//
// Graphs are stored as METIS stores them, in compressed sparse row form
// built once from an arc list, and connected components come from one
// union-find over arrays; the package keeps no maps, so every result is a
// function of the input alone.
package graph

// arc is one undirected weighted edge of the list a graph is built from.
type arc struct {
	u, v int
	w    float64
}

// graph is an undirected graph with node and edge weights in compressed
// sparse row form: node u's neighbours are adj[off[u]:off[u+1]], ascending
// by id, and wgt holds the weights of those edges at the same positions.
type graph struct {
	nodeWeight []int
	off        []int
	adj        []int
	wgt        []float64
}

// newGraph builds the graph on len(nodeWeight) nodes from an arc list.
// Self-loops are dropped. The parallel arcs of a pair become one edge whose
// weight is summed from zero in list order, and an edge of weight zero is
// kept: it still counts toward its endpoints' degrees and links them.
func newGraph(nodeWeight []int, arcs []arc) *graph {
	n := len(nodeWeight)
	off := make([]int, n+1)
	for _, a := range arcs {
		if a.u != a.v {
			off[a.u+1]++
			off[a.v+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	// Two stable counting sorts of the directed arcs, by neighbour and then
	// by node, leave each row ascending by neighbour with the parallel arcs
	// of a pair in list order.
	byNbr := make([]arc, off[n])
	next := make([]int, n)
	copy(next, off)
	for _, a := range arcs {
		if a.u != a.v {
			byNbr[next[a.v]] = a
			next[a.v]++
			byNbr[next[a.u]] = arc{a.v, a.u, a.w}
			next[a.u]++
		}
	}
	copy(next, off)
	adj, wgt := make([]int, off[n]), make([]float64, off[n])
	for _, a := range byNbr {
		adj[next[a.u]], wgt[next[a.u]] = a.v, a.w
		next[a.u]++
	}
	// Merge each row's parallel arcs in place.
	k := 0
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		off[u] = k
		for i := lo; i < hi; i++ {
			v, w := adj[i], wgt[i]
			if k == off[u] || adj[k-1] != v {
				adj[k], wgt[k] = v, 0
				k++
			}
			wgt[k-1] += w
		}
	}
	off[n] = k
	return &graph{nodeWeight: nodeWeight, off: off, adj: adj[:k], wgt: wgt[:k]}
}

// nbrs returns u's neighbours, ascending, and the weights of u's edges to
// them.
func (g *graph) nbrs(u int) ([]int, []float64) {
	lo, hi := g.off[u], g.off[u+1]
	return g.adj[lo:hi], g.wgt[lo:hi]
}

// degree returns the number of distinct neighbours of u.
func (g *graph) degree(u int) int { return g.off[u+1] - g.off[u] }

// groups is a grouping of nodes 0..n-1: node v is in group of[v], and group
// c's members are members[at[c]:at[c+1]], ascending.
type groups struct {
	of, at, members []int
}

// size returns the number of members of group c.
func (s groups) size(c int) int { return s.at[c+1] - s.at[c] }

// components groups the nodes 0..n-1 into the connected components of the
// graph with the given arcs, numbered in order of their smallest member.
func components(n int, arcs []arc) groups {
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, a := range arcs {
		if ru, rv := find(a.u), find(a.v); ru != rv {
			parent[ru] = rv
		}
	}
	// A root's label is its component, numbered when the component's
	// smallest node is reached.
	label := make([]int, n)
	for v := range label {
		label[v] = -1
	}
	nc := 0
	for v := 0; v < n; v++ {
		r := find(v)
		if label[r] < 0 {
			label[r] = nc
			nc++
		}
		label[v] = label[r]
	}
	at := make([]int, nc+1)
	for _, c := range label {
		at[c+1]++
	}
	for c := 0; c < nc; c++ {
		at[c+1] += at[c]
	}
	members := make([]int, n)
	next := parent[:nc] // the forest is no longer needed
	copy(next, at)
	for v, c := range label {
		members[next[c]] = v
		next[c]++
	}
	return groups{of: label, at: at, members: members}
}
