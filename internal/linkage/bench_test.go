package linkage

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/relation"
)

// benchPair builds a Fig 7c/8a-shaped Stage-1 workload: two relations of n
// movie-title-like strings (2–4 words drawn from a v-word vocabulary, the
// synthetic generator's shape) where the right side perturbs roughly a
// third of the left's rows and replaces the rest — so posting lists are
// busy but candidate sets stay sparse, as in the IMDb views.
func benchPair(n, v int, seed int64) (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, v)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	title := func() string {
		k := 2 + rng.Intn(3)
		s := vocab[rng.Intn(v)]
		for i := 1; i < k; i++ {
			s += " " + vocab[rng.Intn(v)]
		}
		return s
	}
	d := relation.NewDict()
	left := relation.NewWithDict(d, "L", "title", "year")
	right := relation.NewWithDict(d, "R", "title", "year")
	titles := make([]string, n)
	for i := 0; i < n; i++ {
		titles[i] = title()
		left.Append(titles[i], int64(1900+rng.Intn(120)))
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0: // shared row
			right.Append(titles[rng.Intn(n)], int64(1900+rng.Intn(120)))
		case 1: // perturbed: one word swapped
			s := titles[rng.Intn(n)] + " " + vocab[rng.Intn(v)]
			right.Append(s, int64(1900+rng.Intn(120)))
		default: // fresh row
			right.Append(title(), int64(1900+rng.Intn(120)))
		}
	}
	return left, right
}

func benchSimilarities(b *testing.B, n, v int, pairwise bool, workers int) {
	left, right := benchPair(n, v, 99)
	idx := []int{0, 1}
	opt := DefaultPairOptions()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		var ms []Match
		var err error
		if pairwise {
			ms, err = SimilaritiesPairwise(left, right, idx, idx, opt)
		} else {
			ms, err = similarities(left, right, idx, idx, opt, workers)
		}
		if err != nil {
			b.Fatal(err)
		}
		total += len(ms)
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches")
}

// The pairwise-blocking baseline (string-keyed token maps, per-row
// candidate maps) against the inverted-index rewrite, single-threaded so
// the numbers isolate the algorithmic change. Sizes follow the Fig 7c
// provenance sweep at benchmark scale; v=1000 matches Fig 8a's vocabulary.

func BenchmarkSimilaritiesPairwiseFig7c(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSimilarities(b, n, 1000, true, 1)
		})
	}
}

func BenchmarkSimilaritiesInvertedFig7c(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSimilarities(b, n, 1000, false, 1)
		})
	}
}

// Small vocabulary (Fig 8c's hard end): tokens repeat across many rows, so
// posting lists are long and the candidate generator dominates.
func BenchmarkSimilaritiesPairwiseDenseVocab(b *testing.B) {
	benchSimilarities(b, 2000, 200, true, 1)
}

func BenchmarkSimilaritiesInvertedDenseVocab(b *testing.B) {
	benchSimilarities(b, 2000, 200, false, 1)
}

// The parallel path stacks on top of the index win (PR 1's row-range
// workers are preserved by the rewrite).
func BenchmarkSimilaritiesInvertedParallel(b *testing.B) {
	benchSimilarities(b, 4000, 1000, false, 0)
}

// MinSharedTokens > 1 on the dense-vocabulary workload isolates the
// per-left-row prefix filter: with long posting lists every row's skip
// budget lands on its own most expensive merges, on top of the global
// stop-word prune.
func BenchmarkSimilaritiesPrefixFilter(b *testing.B) {
	left, right := benchPair(2000, 200, 99)
	idx := []int{0, 1}
	opt := DefaultPairOptions()
	opt.MinSharedTokens = 3
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		ms, err := similarities(left, right, idx, idx, opt, 1)
		if err != nil {
			b.Fatal(err)
		}
		total += len(ms)
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches")
}

// BenchmarkSimilaritiesDenseMinSim runs Stage 1 at the shape of e3bench's
// oneshot-stage1 workload: a 20000-row scenario with a dense filler
// vocabulary (rows/50 words), MinSim 0.6 and two workers. Nearly every
// blocking candidate shares only filler words and falls far below MinSim,
// so the cost is the candidate scan, not scoring of kept pairs. Each
// iteration builds the index over the right side and scans the left.
func BenchmarkSimilaritiesDenseMinSim(b *testing.B) {
	const rows = 20000
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: rows, Vocab: rows / 50, Disagree: 0.002, Noise: 0.02, Seed: 1,
	})
	left, _ := sc.DB1.Relation(sc.Spec.Name + "1")
	right, _ := sc.DB2.Relation(sc.Spec.Name + "2")
	idx := []int{1} // match_attr
	opt := DefaultPairOptions()
	opt.MinSim = 0.6
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		ix, err := BuildIndex(right, idx, opt)
		if err != nil {
			b.Fatal(err)
		}
		ms, err := ix.Similarities(left, idx, 2)
		if err != nil {
			b.Fatal(err)
		}
		total += len(ms)
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches")
}
