package linkage

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/relation"
)

// TestShardedMatchesUnsharded is the acceptance property of the hash-
// sharded Stage 1: over random relations — shared or separate dictionaries,
// stop-word pruning active or not — the sharded scan must return
// byte-identical matches to the unsharded scan at every shard count and
// worker count, including shard counts far above the distinct-token count.
func TestShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		cols := 1 + rng.Intn(3)
		var d *relation.Dict
		if rng.Intn(2) == 0 {
			d = relation.NewDict()
		}
		left := randomRelation(rng, "L", 1+rng.Intn(60), cols, d)
		right := randomRelation(rng, "R", 1+rng.Intn(60), cols, d)
		idx := make([]int, cols)
		for j := range idx {
			idx[j] = j
		}
		opt := PairOptions{
			MinSim:          minSimGrid[rng.Intn(len(minSimGrid))],
			Block:           true,
			MinSharedTokens: 1 + rng.Intn(4),
		}
		want, err := Similarities(left, right, idx, idx, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 8, 64} {
			for _, workers := range []int{1, 4} {
				sopt := opt
				sopt.Shards, sopt.Workers = shards, workers
				got, err := Similarities(left, right, idx, idx, sopt)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("trial %d shards %d workers %d (minShared=%d shared=%v)",
					trial, shards, workers, opt.MinSharedTokens, d != nil), got, want)
			}
		}
	}
}

// TestShardedStopWordPruning forces pruned posting lists under sharding:
// every row carries a stop word, so its list is dropped globally and
// borderline pairs must survive through exact verification in the sharded
// merge exactly as they do unsharded.
func TestShardedStopWordPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	build := func(name string, rows int) *relation.Relation {
		r := relation.New(name, "c0")
		for i := 0; i < rows; i++ {
			s := "the " + vocab[rng.Intn(len(vocab))]
			if rng.Intn(3) == 0 {
				s += " " + vocab[rng.Intn(len(vocab))]
			}
			r.Append(s)
		}
		return r
	}
	left, right := build("L", 40), build("R", 40)
	for _, minShared := range []int{2, 3} {
		opt := PairOptions{MinSim: 0, Block: true, MinSharedTokens: minShared}
		want, err := Similarities(left, right, []int{0}, []int{0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("minShared=%d: degenerate workload, no reference matches", minShared)
		}
		for _, shards := range []int{2, 8} {
			for _, workers := range []int{1, 4} {
				sopt := opt
				sopt.Shards, sopt.Workers = shards, workers
				got, err := Similarities(left, right, []int{0}, []int{0}, sopt)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, fmt.Sprintf("sharded stop-word minShared=%d shards=%d workers=%d",
					minShared, shards, workers), got, want)
			}
		}
	}
}

// TestShardedPrebuiltIndex pins the serving path: an Index built once with
// shards answers repeated left relations identically to a shard-free Index,
// even though the later left sides intern tokens the shard map has never
// seen.
func TestShardedPrebuiltIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	right := randomRelation(rng, "R", 50, 2, nil)
	idx := []int{0, 1}
	plain, err := BuildIndex(right, idx, PairOptions{MinSim: 0, Block: true, MinSharedTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildIndex(right, idx, PairOptions{MinSim: 0, Block: true, MinSharedTokens: 2, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 5; q++ {
		left := randomRelation(rng, "L", 30, 2, nil)
		want, err := plain.Similarities(left, idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Similarities(left, idx, 4)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, fmt.Sprintf("prebuilt query %d", q), got, want)
	}
}
