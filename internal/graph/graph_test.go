package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// ones returns n unit node weights.
func ones(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// edgeWeight returns the weight of edge (u, v), 0 if absent.
func edgeWeight(g *graph, u, v int) float64 {
	nbr, wgt := g.nbrs(u)
	if i, ok := slices.BinarySearch(nbr, v); ok {
		return wgt[i]
	}
	return 0
}

// totalEdgeWeight sums all edge weights, each undirected edge once.
func totalEdgeWeight(g *graph) float64 {
	t := 0.0
	for u := range g.nodeWeight {
		nbr, wgt := g.nbrs(u)
		for i, v := range nbr {
			if u < v {
				t += wgt[i]
			}
		}
	}
	return t
}

// cutWeight sums the weights of edges between different parts.
func cutWeight(g *graph, part []int) float64 {
	cut := 0.0
	for u := range g.nodeWeight {
		nbr, wgt := g.nbrs(u)
		for i, v := range nbr {
			if u < v && part[u] != part[v] {
				cut += wgt[i]
			}
		}
	}
	return cut
}

// bipartiteArcs lists b's matches as arcs between global node ids, with
// probabilities as weights.
func bipartiteArcs(b *Bipartite) []arc {
	arcs := make([]arc, len(b.Edges))
	for i, e := range b.Edges {
		arcs[i] = arc{e.L, b.NLeft + e.R, e.P}
	}
	return arcs
}

// groupLists expands a grouping into one member list per group.
func groupLists(s groups) [][]int {
	out := make([][]int, len(s.at)-1)
	for c := range out {
		out[c] = s.members[s.at[c]:s.at[c+1]]
	}
	return out
}

func TestConnectedComponents(t *testing.T) {
	comps := components(6, []arc{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if got := groupLists(comps); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	if want := []int{0, 0, 0, 1, 1, 2}; !slices.Equal(comps.of, want) {
		t.Fatalf("component of = %v, want %v", comps.of, want)
	}
}

func TestEdgeMergeAndSelfLoop(t *testing.T) {
	g := newGraph(ones(4), []arc{
		{0, 1, 0.5},
		{1, 0, 0.25},
		{2, 2, 9}, // ignored
		{1, 3, 0}, // kept: zero weight still links 1 and 3
	})
	if w := edgeWeight(g, 0, 1); w != 0.75 {
		t.Fatalf("merged weight = %v, want 0.75", w)
	}
	if w := edgeWeight(g, 1, 0); w != 0.75 {
		t.Fatalf("merged weight (1, 0) = %v, want 0.75", w)
	}
	if g.degree(2) != 0 {
		t.Fatal("self loop should be ignored")
	}
	if nbr, _ := g.nbrs(1); !slices.Equal(nbr, []int{0, 3}) || g.degree(3) != 1 {
		t.Fatalf("zero-weight edge dropped: neighbours of 1 = %v, degree of 3 = %d", nbr, g.degree(3))
	}
	if totalEdgeWeight(g) != 0.75 {
		t.Fatalf("total edge weight = %v", totalEdgeWeight(g))
	}
}

func TestCutWeight(t *testing.T) {
	g := newGraph(ones(4), []arc{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}})
	part := []int{0, 0, 1, 1}
	if cut := cutWeight(g, part); cut != 3 {
		t.Fatalf("cut = %v, want 3", cut)
	}
}

func validatePartition(t *testing.T, g *graph, part []int, lmax int) {
	t.Helper()
	if len(part) != len(g.nodeWeight) {
		t.Fatalf("partition covers %d of %d nodes", len(part), len(g.nodeWeight))
	}
	load := map[int]int{}
	count := map[int]int{}
	for u, p := range part {
		if p < 0 {
			t.Fatalf("node %d unassigned", u)
		}
		load[p] += g.nodeWeight[u]
		count[p]++
	}
	for p, l := range load {
		if l > lmax && count[p] > 1 {
			t.Fatalf("part %d has weight %d > lmax %d with %d nodes", p, l, lmax, count[p])
		}
	}
}

func TestPartitionPath(t *testing.T) {
	// A path graph: balanced bisection should cut one edge.
	var arcs []arc
	for i := 0; i < 7; i++ {
		arcs = append(arcs, arc{i, i + 1, 1})
	}
	g := newGraph(ones(8), arcs)
	part, err := partition(g, partitionOptions{lmax: 4, k: 2})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, g, part, 4)
	if cut := cutWeight(g, part); cut > 2 {
		t.Fatalf("path cut = %v, want ≤ 2", cut)
	}
}

func TestPartitionRespectsHeavyEdges(t *testing.T) {
	// Two 3-cliques joined by a light edge: the light edge should be cut.
	heavy := 10.0
	g := newGraph(ones(6), []arc{
		{0, 1, heavy}, {1, 2, heavy}, {0, 2, heavy},
		{3, 4, heavy}, {4, 5, heavy}, {3, 5, heavy},
		{2, 3, 0.1},
	})
	part, err := partition(g, partitionOptions{lmax: 3, k: 2})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, g, part, 3)
	if part[0] != part[1] || part[1] != part[2] {
		t.Fatalf("left clique split: %v", part)
	}
	if part[3] != part[4] || part[4] != part[5] {
		t.Fatalf("right clique split: %v", part)
	}
	if part[0] == part[3] {
		t.Fatal("cliques not separated")
	}
}

func TestPartitionOversizedNode(t *testing.T) {
	w := ones(3)
	w[0] = 10 // exceeds lmax
	g := newGraph(w, []arc{{0, 1, 1}, {1, 2, 1}})
	part, err := partition(g, partitionOptions{lmax: 4, k: 2})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, g, part, 4)
	if part[1] == part[0] || part[2] == part[0] {
		t.Fatalf("oversized node must sit alone: %v", part)
	}
}

// Property: on random graphs the partitioner always produces a valid
// partition (cover, balance) and never a worse cut than all-singletons.
func TestPartitionRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(120)
		var arcs []arc
		edges := n * (1 + rng.Intn(3))
		for e := 0; e < edges; e++ {
			arcs = append(arcs, arc{rng.Intn(n), rng.Intn(n), rng.Float64()})
		}
		g := newGraph(ones(n), arcs)
		lmax := 5 + rng.Intn(20)
		part, err := partition(g, partitionOptions{lmax: lmax, k: (n + lmax - 1) / lmax})
		if err != nil {
			t.Fatal(err)
		}
		validatePartition(t, g, part, lmax)
		if cut := cutWeight(g, part); cut > totalEdgeWeight(g)+1e-9 {
			t.Fatalf("trial %d: cut %v exceeds total %v", trial, cut, totalEdgeWeight(g))
		}
	}
}

func TestCoarsenPreservesWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(100)
		var arcs []arc
		for e := 0; e < 3*n; e++ {
			arcs = append(arcs, arc{rng.Intn(n), rng.Intn(n), rng.Float64()})
		}
		g := newGraph(ones(n), arcs)
		coarse, toCoarse := coarsen(g, 1<<30)
		if got := sum(coarse.nodeWeight); got != n {
			t.Fatalf("coarsen lost node weight: %d -> %d", n, got)
		}
		for u := 0; u < n; u++ {
			if toCoarse[u] < 0 || toCoarse[u] >= len(coarse.nodeWeight) {
				t.Fatalf("node %d maps to invalid coarse node %d", u, toCoarse[u])
			}
		}
		// Edge weight is preserved up to weights absorbed into merged nodes.
		if totalEdgeWeight(coarse) > totalEdgeWeight(g)+1e-9 {
			t.Fatalf("coarse edge weight grew: %v -> %v", totalEdgeWeight(g), totalEdgeWeight(coarse))
		}
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func TestBipartiteComponents(t *testing.T) {
	b := NewBipartite(3, 3)
	b.AddMatch(0, 0, 0.9)
	b.AddMatch(1, 0, 0.5)
	b.AddMatch(2, 2, 1.0)
	comps := groupLists(components(b.size(), bipartiteArcs(b)))
	want := [][]int{{0, 1, 3}, {2, 5}, {4}} // {0, 1, R0}, {2, R2}, {R1}
	if !slices.EqualFunc(comps, want, slices.Equal) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
}

func TestAdjustedWeight(t *testing.T) {
	if w := adjustedWeight(0.95); w != 95 {
		t.Fatalf("high weight = %v, want 95", w)
	}
	if w := adjustedWeight(0.05); w != 0.0005 {
		t.Fatalf("low weight = %v, want 0.0005", w)
	}
	if w := adjustedWeight(0.5); w != 0.5 {
		t.Fatalf("mid weight = %v, want 0.5", w)
	}
}

func TestPrePartitionMergesHighProbability(t *testing.T) {
	b := NewBipartite(3, 3)
	b.AddMatch(0, 0, 0.95) // merged
	b.AddMatch(1, 0, 0.95) // merged (chains 1 into {0, R0})
	b.AddMatch(1, 1, 0.4)  // kept as edge
	b.AddMatch(2, 2, 0.05) // kept, penalized
	super, arcs := prePartition(b)
	// Super node containing 0, 1, R0.
	if super.of[0] != super.of[1] || super.of[0] != super.of[b.NLeft+0] {
		t.Fatalf("high-probability chain not merged: %v", super.of)
	}
	if super.of[2] == super.of[0] || super.of[b.NLeft+2] == super.of[2] {
		t.Fatalf("low probability edge should not merge: %v", super.of)
	}
	// Total weight preserved.
	weight := make([]int, len(super.at)-1)
	for c := range weight {
		weight[c] = super.size(c)
	}
	if sum(weight) != b.size() {
		t.Fatalf("coarse node weight = %d, want %d", sum(weight), b.size())
	}
	// The 0.4 edge survives with unadjusted weight; the 0.05 edge shrinks.
	coarse := newGraph(weight, arcs)
	if w := edgeWeight(coarse, super.of[1], super.of[b.NLeft+1]); w != 0.4 {
		t.Fatalf("mid edge weight = %v, want 0.4", w)
	}
	if w := edgeWeight(coarse, super.of[2], super.of[b.NLeft+2]); w != 0.05/100 {
		t.Fatalf("low edge weight = %v, want %v", w, 0.05/100)
	}
}

func TestSmartPartitionCoversAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		nl, nr := 20+rng.Intn(80), 20+rng.Intn(80)
		b := NewBipartite(nl, nr)
		for e := 0; e < nl+nr; e++ {
			b.AddMatch(rng.Intn(nl), rng.Intn(nr), rng.Float64())
		}
		batch := 10 + rng.Intn(30)
		parts, err := SmartPartition(b, DefaultSmartOptions(batch))
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkSmartPartition(b, batch, parts); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
}

func TestSmartPartitionAvoidsCuttingHighProbEdges(t *testing.T) {
	// Chain of high-probability pairs plus low-probability cross edges:
	// every 0.9+ edge must stay within one partition.
	b := NewBipartite(20, 20)
	for i := 0; i < 20; i++ {
		b.AddMatch(i, i, 0.95)
	}
	for i := 0; i < 19; i++ {
		b.AddMatch(i, i+1, 0.05)
	}
	parts, err := SmartPartition(b, DefaultSmartOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	partOf := make(map[int]int)
	for pi, p := range parts {
		for _, u := range p {
			partOf[u] = pi
		}
	}
	for i := 0; i < 20; i++ {
		if partOf[i] != partOf[b.NLeft+i] {
			t.Fatalf("high-probability match (%d, R%d) split across partitions", i, i)
		}
	}
}

func TestSmartPartitionErrors(t *testing.T) {
	b := NewBipartite(2, 2)
	if _, err := SmartPartition(b, SmartOptions{BatchSize: 0}); err == nil {
		t.Fatal("batch size 0 should error")
	}
}

func TestPartitionEmptyGraph(t *testing.T) {
	part, err := partition(newGraph(nil, nil), partitionOptions{lmax: 5, k: 1})
	if err != nil || part != nil {
		t.Fatalf("empty graph: part=%v err=%v", part, err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := newGraph(ones(4), []arc{{0, 3, 1}, {0, 1, 1}, {2, 0, 1}})
	if nbr, _ := g.nbrs(0); !slices.Equal(nbr, []int{1, 2, 3}) {
		t.Fatalf("neighbors not sorted: %v", nbr)
	}
}
