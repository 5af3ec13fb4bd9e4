package graph

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSmartPartition checks SmartPartition's contract on its output: every
// node appears exactly once, a part exceeds the batch size only when it is
// one oversized super-node, and no match with p ≥ θh is cut. It returns ""
// when all hold.
func checkSmartPartition(b *Bipartite, batch int, parts [][]int) string {
	partOf := make([]int, b.size())
	for i := range partOf {
		partOf[i] = -1
	}
	super, _ := prePartition(b)
	for pi, p := range parts {
		for _, u := range p {
			if partOf[u] >= 0 {
				return fmt.Sprintf("node %d in partitions %d and %d", u, partOf[u], pi)
			}
			partOf[u] = pi
		}
		if len(p) > batch && (super.of[p[0]] != super.of[p[len(p)-1]] || super.size(super.of[p[0]]) != len(p)) {
			return fmt.Sprintf("partition %d has %d nodes > batch %d and is not one super-node", pi, len(p), batch)
		}
	}
	for u, p := range partOf {
		if p < 0 {
			return fmt.Sprintf("node %d unassigned", u)
		}
	}
	for _, e := range b.Edges {
		if e.P >= thetaHigh && partOf[e.L] != partOf[b.NLeft+e.R] {
			return fmt.Sprintf("match (%d, R%d) with p %v cut", e.L, e.R, e.P)
		}
	}
	return ""
}

// checkSmartMatchesReference runs SmartPartition and refSmartPartition on
// one input and reports the first difference, then checks the contract.
func checkSmartMatchesReference(t *testing.T, b *Bipartite, batch int) {
	t.Helper()
	got, err := SmartPartition(b, DefaultSmartOptions(batch))
	if err != nil {
		t.Fatal(err)
	}
	want, err := refSmartPartition(b, DefaultSmartOptions(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%d×%d, %d matches, batch %d: %d partitions, reference %d", b.NLeft, b.NRight, len(b.Edges), batch, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%d×%d, %d matches, batch %d: partition %d = %v, reference %v", b.NLeft, b.NRight, len(b.Edges), batch, i, got[i], want[i])
		}
	}
	if msg := checkSmartPartition(b, batch, got); msg != "" {
		t.Fatalf("%d×%d, %d matches, batch %d: %s", b.NLeft, b.NRight, len(b.Edges), batch, msg)
	}
}

// probs are the match probabilities the random inputs draw from besides a
// uniform one: exactly 0, both sides of θl and θh, and 1.
var probs = []float64{
	0, 0.05, math.Nextafter(thetaLow, 0), thetaLow, math.Nextafter(thetaLow, 1), 0.5,
	math.Nextafter(thetaHigh, 0), thetaHigh, math.Nextafter(thetaHigh, 1), 0.95, 1,
}

// randomBipartite draws a match graph with parallel matches and isolated
// nodes, probabilities from probs or uniform.
func randomBipartite(rng *rand.Rand, nl, nr, matches int) *Bipartite {
	b := NewBipartite(nl, nr)
	if nl == 0 || nr == 0 {
		return b
	}
	for e := 0; e < matches; e++ {
		p := rng.Float64()
		if k := rng.Intn(2 * len(probs)); k < len(probs) {
			p = probs[k]
		}
		b.AddMatch(rng.Intn(nl), rng.Intn(nr), p)
		if rng.Intn(8) == 0 { // a parallel match
			last := b.Edges[len(b.Edges)-1]
			b.AddMatch(last.L, last.R, rng.Float64())
		}
	}
	return b
}

func TestNewGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		var arcs []arc
		ref := refNew(n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			a := arc{rng.Intn(n), rng.Intn(n), rng.Float64()}
			if rng.Intn(4) == 0 {
				a.w = 0
			}
			arcs = append(arcs, a)
			ref.AddEdge(a.u, a.v, a.w)
		}
		g := newGraph(ones(n), arcs)
		for u := 0; u < n; u++ {
			nbr, wgt := g.nbrs(u)
			want := ref.Neighbors(u)
			if len(nbr) != len(want) || g.degree(u) != ref.Degree(u) {
				t.Fatalf("trial %d: node %d has %d neighbours, reference %d", trial, u, len(nbr), len(want))
			}
			for i, e := range want {
				if nbr[i] != e.To || math.Float64bits(wgt[i]) != math.Float64bits(e.Weight) {
					t.Fatalf("trial %d: node %d edge %d = (%d, %v), reference (%d, %v)", trial, u, i, nbr[i], wgt[i], e.To, e.Weight)
				}
			}
		}
		if got, want := groupLists(components(n, arcs)), ref.ConnectedComponents(); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("trial %d: components %v, reference %v", trial, got, want)
		}
	}
}

func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		weight := ones(n)
		ref := refNew(n)
		for u := range weight {
			if rng.Intn(10) == 0 {
				weight[u] = 1 + rng.Intn(12)
			}
			ref.NodeWeight[u] = weight[u]
		}
		var arcs []arc
		for e := rng.Intn(3 * n); e > 0; e-- {
			a := arc{rng.Intn(n), rng.Intn(n), adjustedWeight(rng.Float64())}
			arcs = append(arcs, a)
			ref.AddEdge(a.u, a.v, a.w)
		}
		lmax := 1 + rng.Intn(40)
		k := 1 + rng.Intn(n/lmax+2)
		got, err := partition(newGraph(weight, arcs), partitionOptions{lmax: lmax, k: k})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refPartition(ref, refPartitionOptions{LMax: lmax, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, lmax %d, k %d): partition %v, reference %v", trial, n, lmax, k, got, want)
		}
	}
}

// TestSmartPartitionMatchesReference compares SmartPartition with the
// map-based refSmartPartition on random inputs and on the ablation
// benchmark's input, partition for partition.
func TestSmartPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		nl, nr := rng.Intn(150), rng.Intn(150)
		b := randomBipartite(rng, nl, nr, rng.Intn(2*(nl+nr)+1))
		checkSmartMatchesReference(t, b, 1+rng.Intn(60))
	}
	for _, data := range smartCases {
		b, batch := decodeSmartCase(data)
		checkSmartMatchesReference(t, b, batch)
	}
	checkSmartMatchesReference(t, ablationGraph(800, 3), 200)
	checkSmartMatchesReference(t, ablationGraph(5000, 1), 1000)
}

// decodeSmartCase turns fuzz bytes into a match graph and a batch size.
// Header: left count, right count, batch size - 1, the number of extra
// matches drawn from a generator seeded with the input's hash; then three
// bytes per explicit match (left, right, probability: a byte below
// len(probs) picks from probs, any other is spread uniformly over [0, 1]).
func decodeSmartCase(data []byte) (*Bipartite, int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	nl, nr, batch, extra := at(0)%120, at(1)%120, 1+at(2)%64, at(3)
	h := fnv.New64a()
	h.Write(data)
	b := randomBipartite(rand.New(rand.NewSource(int64(h.Sum64()))), nl, nr, extra)
	if nl == 0 || nr == 0 {
		return b, batch
	}
	for i := 4; i+2 < len(data); i += 3 {
		p := float64(at(i+2)-len(probs)) / float64(255-len(probs))
		if k := at(i + 2); k < len(probs) {
			p = probs[k]
		}
		b.AddMatch(at(i)%nl, at(i+1)%nr, p)
	}
	return b, batch
}

// smartCases are hand-picked inputs for decodeSmartCase; the seeds under
// testdata/fuzz/FuzzSmartPartition are these.
var smartCases = [][]byte{
	// No nodes.
	{0, 0, 0, 0},
	// Isolated nodes only, batch 1.
	{5, 7, 0, 0},
	// A θh chain heavier than the batch (one oversized super-node) beside
	// θl, exactly-0 and parallel matches.
	{4, 4, 1, 0, 0, 0, 7, 1, 0, 7, 1, 1, 8, 2, 1, 7, 2, 2, 0, 3, 3, 3, 3, 3, 2, 3, 3, 200},
	// One large component that the multilevel partitioner must coarsen.
	{90, 90, 9, 255},
	// Many components packed first-fit at batch 1 and at a loose batch.
	{60, 40, 0, 80},
	{60, 40, 63, 80},
}

// FuzzSmartPartition decodes the input into a small match graph and checks
// SmartPartition against refSmartPartition and its contract. Its seeds
// under testdata/fuzz/FuzzSmartPartition are smartCases.
func FuzzSmartPartition(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, batch := decodeSmartCase(data)
		checkSmartMatchesReference(t, b, batch)
	})
}
