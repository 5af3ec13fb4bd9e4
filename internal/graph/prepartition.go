package graph

import (
	"fmt"
	"slices"
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

// size returns the total node count; node ids are left nodes followed by
// right nodes (right node r has id NLeft + r).
func (b *Bipartite) size() int { return b.NLeft + b.NRight }

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

// prePartition implements Algorithm 2: tuples connected by matches with
// p ≥ θh are merged into super-nodes, the components of the
// high-probability matches; the remaining matches become arcs between
// super-nodes with adjusted weights, in match order. A super-node's weight
// is its member count.
func prePartition(b *Bipartite) (super groups, coarse []arc) {
	nHigh := 0
	for _, e := range b.Edges {
		if e.P >= thetaHigh {
			nHigh++
		}
	}
	high := make([]arc, 0, nHigh)
	for _, e := range b.Edges {
		if e.P >= thetaHigh {
			high = append(high, arc{e.L, b.NLeft + e.R, e.P})
		}
	}
	super = components(b.size(), high)
	coarse = make([]arc, 0, len(b.Edges)-nHigh)
	for _, e := range b.Edges {
		if cu, cv := super.of[e.L], super.of[b.NLeft+e.R]; cu != cv {
			coarse = append(coarse, arc{cu, cv, adjustedWeight(e.P)})
		}
	}
	return super, coarse
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
	super, arcs := prePartition(b)
	comps := components(len(super.at)-1, arcs)
	nComps := len(comps.at) - 1
	// A packing unit is a set of super-nodes no batch boundary may cut: a
	// coarse component, or one part of an oversized component's split.
	// unit[c] is super-node c's unit; component i is unit i while whole.
	unit := slices.Clone(comps.of)
	nUnits := nComps
	var local []arc
	var localAt []int
	for i := 0; i < nComps; i++ {
		members := comps.members[comps.at[i]:comps.at[i+1]]
		w := 0
		for _, c := range members {
			w += super.size(c)
		}
		if w <= opt.BatchSize || len(members) == 1 {
			continue
		}
		if localAt == nil {
			local, localAt = localArcs(arcs, comps)
		}
		// Oversized component: split it alone under the balance bound,
		// minimizing the severed match weight within the component.
		part, err := splitComponent(super, members, local[localAt[i]:localAt[i+1]], opt.BatchSize)
		if err != nil {
			return nil, err
		}
		for j, c := range members {
			unit[c] = nUnits + part[j]
		}
		nUnits += slices.Max(part) + 1
	}
	return pack(b.size(), super, unit, nUnits, opt.BatchSize), nil
}

// localArcs groups the coarse arcs by component, each group in list order,
// with every end renumbered to its position in its component: component
// i's arcs are local[at[i]:at[i+1]].
func localArcs(arcs []arc, comps groups) (local []arc, at []int) {
	pos := make([]int, len(comps.of))
	for k, c := range comps.members {
		pos[c] = k - comps.at[comps.of[c]]
	}
	nComps := len(comps.at) - 1
	at = make([]int, nComps+1)
	for _, a := range arcs {
		at[comps.of[a.u]+1]++
	}
	for i := 0; i < nComps; i++ {
		at[i+1] += at[i]
	}
	next := slices.Clone(at[:nComps])
	local = make([]arc, len(arcs))
	for _, a := range arcs {
		i := comps.of[a.u]
		local[next[i]] = arc{pos[a.u], pos[a.v], a.w}
		next[i]++
	}
	return local, at
}

// splitComponent partitions one oversized coarse component, given as its
// super-nodes and its arcs in local ids, under the batch bound and returns
// the part of each super-node.
func splitComponent(super groups, members []int, arcs []arc, batch int) ([]int, error) {
	weight := make([]int, len(members))
	w := 0
	for j, c := range members {
		weight[j] = super.size(c)
		w += weight[j]
	}
	return partition(newGraph(weight, arcs), partitionOptions{lmax: batch, k: (w + batch - 1) / batch})
}

// pack orders the units by smallest original node and fills batches
// first-fit in that order, so that batch id spans follow it: a unit opens a
// new batch when adding it to a non-empty one would exceed the batch size.
// It returns each batch's original nodes, ascending.
func pack(n int, super groups, unit []int, nUnits, batch int) [][]int {
	// unitOf[v] is node v's unit, renumbered by smallest node.
	rank := make([]int, nUnits)
	for u := range rank {
		rank[u] = -1
	}
	unitOf := make([]int, n)
	var size []int
	for v := range unitOf {
		u := unit[super.of[v]]
		if rank[u] < 0 {
			rank[u] = len(size)
			size = append(size, 0)
		}
		unitOf[v] = rank[u]
		size[rank[u]]++
	}
	if len(size) == 0 {
		return nil
	}
	batchOf := make([]int, len(size))
	nb, cur := 0, 0
	for u, w := range size {
		if cur > 0 && cur+w > batch {
			nb, cur = nb+1, 0
		}
		batchOf[u] = nb
		cur += w
	}
	nb++
	at := make([]int, nb+1)
	for u, w := range size {
		at[batchOf[u]+1] += w
	}
	for i := 0; i < nb; i++ {
		at[i+1] += at[i]
	}
	next := slices.Clone(at[:nb])
	nodes := make([]int, n)
	for v, u := range unitOf {
		i := batchOf[u]
		nodes[next[i]] = v
		next[i]++
	}
	out := make([][]int, nb)
	for i := range out {
		out[i] = nodes[at[i]:at[i+1]:at[i+1]]
	}
	return out
}
