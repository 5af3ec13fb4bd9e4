package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("comp %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("comp %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestEdgeMergeAndSelfLoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(1, 0, 0.25)
	g.AddEdge(2, 2, 9) // ignored
	if w := g.EdgeWeight(0, 1); w != 0.75 {
		t.Fatalf("merged weight = %v, want 0.75", w)
	}
	if g.Degree(2) != 0 {
		t.Fatal("self loop should be ignored")
	}
	if g.TotalEdgeWeight() != 0.75 {
		t.Fatalf("total edge weight = %v", g.TotalEdgeWeight())
	}
}

func TestCutWeight(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 4)
	part := []int{0, 0, 1, 1}
	if cut := g.CutWeight(part); cut != 3 {
		t.Fatalf("cut = %v, want 3", cut)
	}
}

func validatePartition(t *testing.T, g *Graph, part []int, lmax int) {
	t.Helper()
	if len(part) != g.Len() {
		t.Fatalf("partition covers %d of %d nodes", len(part), g.Len())
	}
	load := map[int]int{}
	count := map[int]int{}
	for u, p := range part {
		if p < 0 {
			t.Fatalf("node %d unassigned", u)
		}
		load[p] += g.NodeWeight[u]
		count[p]++
	}
	for p, l := range load {
		if l > lmax && count[p] > 1 {
			t.Fatalf("part %d has weight %d > LMax %d with %d nodes", p, l, lmax, count[p])
		}
	}
}

func TestPartitionPath(t *testing.T) {
	// A path graph: balanced bisection should cut one edge.
	g := New(8)
	for i := 0; i < 7; i++ {
		g.AddEdge(i, i+1, 1)
	}
	part, err := Partition(g, PartitionOptions{LMax: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, g, part, 4)
	if cut := g.CutWeight(part); cut > 2 {
		t.Fatalf("path cut = %v, want ≤ 2", cut)
	}
}

func TestPartitionRespectsHeavyEdges(t *testing.T) {
	// Two 3-cliques joined by a light edge: the light edge should be cut.
	g := New(6)
	heavy := 10.0
	g.AddEdge(0, 1, heavy)
	g.AddEdge(1, 2, heavy)
	g.AddEdge(0, 2, heavy)
	g.AddEdge(3, 4, heavy)
	g.AddEdge(4, 5, heavy)
	g.AddEdge(3, 5, heavy)
	g.AddEdge(2, 3, 0.1)
	part, err := Partition(g, PartitionOptions{LMax: 3, K: 2})
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
	g := New(3)
	g.NodeWeight[0] = 10 // exceeds LMax
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	part, err := Partition(g, PartitionOptions{LMax: 4, K: 2})
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
		g := New(n)
		edges := n * (1 + rng.Intn(3))
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(u, v, rng.Float64())
		}
		lmax := 5 + rng.Intn(20)
		part, err := Partition(g, PartitionOptions{LMax: lmax, K: (n + lmax - 1) / lmax})
		if err != nil {
			t.Fatal(err)
		}
		validatePartition(t, g, part, lmax)
		if cut := g.CutWeight(part); cut > g.TotalEdgeWeight()+1e-9 {
			t.Fatalf("trial %d: cut %v exceeds total %v", trial, cut, g.TotalEdgeWeight())
		}
	}
}

func TestCoarsenPreservesWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(100)
		g := New(n)
		for e := 0; e < 3*n; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64())
		}
		coarse, toCoarse := coarsen(g, 1<<30)
		if coarse.TotalNodeWeight() != g.TotalNodeWeight() {
			t.Fatalf("coarsen lost node weight: %d -> %d", g.TotalNodeWeight(), coarse.TotalNodeWeight())
		}
		for u := 0; u < n; u++ {
			if toCoarse[u] < 0 || toCoarse[u] >= coarse.Len() {
				t.Fatalf("node %d maps to invalid coarse node %d", u, toCoarse[u])
			}
		}
		// Edge weight is preserved up to weights absorbed into merged nodes.
		if coarse.TotalEdgeWeight() > g.TotalEdgeWeight()+1e-9 {
			t.Fatalf("coarse edge weight grew: %v -> %v", g.TotalEdgeWeight(), coarse.TotalEdgeWeight())
		}
	}
}

func TestBipartiteComponents(t *testing.T) {
	b := NewBipartite(3, 3)
	b.AddMatch(0, 0, 0.9)
	b.AddMatch(1, 0, 0.5)
	b.AddMatch(2, 2, 1.0)
	comps := b.ConnectedComponents()
	if len(comps) != 3 { // {0, 1, R0}, {2, R2}, {R1}
		t.Fatalf("components = %v", comps)
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
	pre := PrePartition(b)
	// Super node containing 0, 1, R0.
	if pre.NodeMap[0] != pre.NodeMap[1] || pre.NodeMap[0] != pre.NodeMap[b.RightID(0)] {
		t.Fatalf("high-probability chain not merged: %v", pre.NodeMap)
	}
	if pre.NodeMap[2] == pre.NodeMap[0] || pre.NodeMap[b.RightID(2)] == pre.NodeMap[2] && false {
		t.Fatalf("low probability edge should not merge: %v", pre.NodeMap)
	}
	// Total weight preserved.
	if pre.Coarse.TotalNodeWeight() != b.Size() {
		t.Fatalf("coarse node weight = %d, want %d", pre.Coarse.TotalNodeWeight(), b.Size())
	}
	// The 0.4 edge survives with unadjusted weight; the 0.05 edge shrinks.
	su := pre.NodeMap[1]
	sv := pre.NodeMap[b.RightID(1)]
	if w := pre.Coarse.EdgeWeight(su, sv); w != 0.4 {
		t.Fatalf("mid edge weight = %v, want 0.4", w)
	}
	lu, lv := pre.NodeMap[2], pre.NodeMap[b.RightID(2)]
	if w := pre.Coarse.EdgeWeight(lu, lv); w != 0.05/100 {
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
		seen := make([]bool, b.Size())
		for _, p := range parts {
			for _, u := range p {
				if seen[u] {
					t.Fatalf("trial %d: node %d in two partitions", trial, u)
				}
				seen[u] = true
			}
		}
		for u, s := range seen {
			if !s {
				t.Fatalf("trial %d: node %d unassigned", trial, u)
			}
		}
		// Parts exceed the batch size only when forced by a merged
		// high-probability bundle.
		pre := PrePartition(b)
		maxBundle := 0
		for _, m := range pre.Members {
			if len(m) > maxBundle {
				maxBundle = len(m)
			}
		}
		for _, p := range parts {
			if len(p) > batch && len(p) > maxBundle {
				t.Fatalf("trial %d: partition size %d exceeds batch %d and bundle %d", trial, len(p), batch, maxBundle)
			}
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
		if partOf[i] != partOf[b.RightID(i)] {
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
	part, err := Partition(New(0), PartitionOptions{LMax: 5, K: 1})
	if err != nil || part != nil {
		t.Fatalf("empty graph: part=%v err=%v", part, err)
	}
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func TestNeighborsSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	ns := g.Neighbors(0)
	ids := []int{ns[0].To, ns[1].To, ns[2].To}
	want := sortedCopy(ids)
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("neighbors not sorted: %v", ids)
		}
	}
}
