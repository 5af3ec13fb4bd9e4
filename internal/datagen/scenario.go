package datagen

import (
	"fmt"
	"math/rand"

	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// ScenarioSpec declaratively parameterizes a large-scale dataset pair for
// storage and Stage-1 scaling experiments: Rows base tuples materialized into two
// disjoint relations (separate dictionaries, so Stage 1 must translate
// codes), a controlled true-disagreement rate, and controlled linkage noise
// that dirties keys without breaking the pair's token overlap. Keys are
// unique by construction — every key embeds its base-tuple id as a token —
// so generation is a single pass with no rejection sampling even at 10⁶
// rows.
type ScenarioSpec struct {
	// Name prefixes the relation names (default "Scen").
	Name string
	// Rows is the number of base tuples before drops.
	Rows int
	// Vocab is the filler vocabulary size (default 500).
	Vocab int
	// WordsPerKey is the number of filler words joined to the id token in
	// match_attr (default 4).
	WordsPerKey int
	// Disagree is the fraction of base tuples that truly disagree: half are
	// dropped from a uniformly chosen side (provenance-based explanations),
	// half get val corrupted on a uniformly chosen side (value-based
	// explanations). Default 0.01.
	Disagree float64
	// Noise is the fraction of agreeing tuples whose match_attr has one
	// filler word rewritten on a uniformly chosen side — dirty keys that
	// spread true pairs across similarity buckets while the id token keeps
	// them discoverable. Default 0.05.
	Noise float64
	// ExtraCols adds payload columns (extra0, extra1, …) of interned strings
	// that Stage 1 ignores — storage ballast for memory experiments.
	ExtraCols int
	// NullRate is the NULL fraction within the extra payload columns.
	NullRate float64
	// Skew > 1 draws val from a Zipf distribution with exponent Skew over
	// [1, 100] instead of uniform, so a heavy tail of tuples carries most of
	// the aggregate — the shape real impact distributions have. 0 = uniform.
	Skew float64
	// NoiseKind selects how Noise dirties a key. "" or "word" rewrites one
	// filler word (the original treatment); "typo" applies a character edit
	// — transpose, substitute, or delete — inside a filler word; "format"
	// fuses two adjacent filler words into one token, simulating delimiter
	// drift (falls back to typo when WordsPerKey < 2). The id token is never
	// touched, so pairs stay discoverable through blocking.
	NoiseKind string
	Seed      int64
}

func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if s.Name == "" {
		s.Name = "Scen"
	}
	if s.Vocab == 0 {
		s.Vocab = 500
	}
	if s.WordsPerKey == 0 {
		s.WordsPerKey = 4
	}
	if s.Disagree == 0 {
		s.Disagree = 0.01
	}
	if s.Noise == 0 {
		s.Noise = 0.05
	}
	switch s.NoiseKind {
	case "", "word", "typo", "format":
	default:
		panic(fmt.Sprintf("datagen: unknown NoiseKind %q", s.NoiseKind))
	}
	return s
}

// Scenario is a generated pair plus its generation trace.
type Scenario struct {
	Spec     ScenarioSpec
	DB1, DB2 *relation.Database
	Q1, Q2   *sqlparse.Select
	Mattr    schemamap.Matching
	// Dropped / Corrupted / Noised count the base tuples each treatment hit.
	Dropped, Corrupted, Noised int
}

// GenerateScenario materializes the spec. Both relations share the schema
// (id, match_attr, val, extra…) and the query SELECT SUM(val); the two
// databases use separate dictionaries.
func GenerateScenario(spec ScenarioSpec) *Scenario {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	out := &Scenario{
		Spec: spec,
		Q1:   sqlparse.MustParse("SELECT SUM(val) FROM " + spec.Name + "1"),
		Q2:   sqlparse.MustParse("SELECT SUM(val) FROM " + spec.Name + "2"),
		Mattr: schemamap.Matching{{
			Left: []string{"match_attr"}, Right: []string{"match_attr"}, Rel: schemamap.Equivalent,
		}},
	}
	vocab := make([]string, spec.Vocab)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%04d", i)
	}
	var zipf *rand.Zipf
	if spec.Skew > 1 {
		zipf = rand.NewZipf(rng, spec.Skew, 1, 99)
	}
	drawVal := func() int64 {
		if zipf != nil {
			return 1 + int64(zipf.Uint64())
		}
		return int64(1 + rng.Intn(100))
	}
	cols := []string{"id", "match_attr", "val", EIDColumn}
	for e := 0; e < spec.ExtraCols; e++ {
		cols = append(cols, fmt.Sprintf("extra%d", e))
	}
	t1 := relation.New(spec.Name+"1", cols...)
	t2 := relation.New(spec.Name+"2", cols...)
	words := make([]string, spec.WordsPerKey+1)
	row := make([]any, len(cols))
	appendRow := func(t *relation.Relation, i int, key string, val int64) {
		row[0], row[1], row[2], row[3] = int64(i), key, val, int64(i)
		for e := 0; e < spec.ExtraCols; e++ {
			if rng.Float64() < spec.NullRate {
				row[4+e] = nil
			} else {
				row[4+e] = vocab[rng.Intn(spec.Vocab)]
			}
		}
		t.Append(row...)
	}
	for i := 0; i < spec.Rows; i++ {
		words[0] = fmt.Sprintf("e%07d", i)
		for w := 1; w <= spec.WordsPerKey; w++ {
			words[w] = vocab[rng.Intn(spec.Vocab)]
		}
		key := joinWords(words)
		key1, key2 := key, key
		val := drawVal()
		val1, val2 := val, val
		drop1, drop2 := false, false
		switch u := rng.Float64(); {
		case u < spec.Disagree/2:
			out.Dropped++
			if rng.Intn(2) == 0 {
				drop1 = true
			} else {
				drop2 = true
			}
		case u < spec.Disagree:
			out.Corrupted++
			delta := int64(1 + rng.Intn(50))
			if rng.Intn(2) == 0 {
				val1 += delta
			} else {
				val2 += delta
			}
		case u < spec.Disagree+spec.Noise:
			out.Noised++
			// Dirty a filler word, never the id token: the pair stays
			// discoverable through blocking but drops out of exact match.
			dirtyKey := dirtyVariant(words, spec, vocab, rng)
			if rng.Intn(2) == 0 {
				key1 = dirtyKey
			} else {
				key2 = dirtyKey
			}
		}
		if !drop1 {
			appendRow(t1, i, key1, val1)
		}
		if !drop2 {
			appendRow(t2, i, key2, val2)
		}
	}
	out.DB1 = relation.NewDatabase(spec.Name + "1").Add(t1)
	out.DB2 = relation.NewDatabase(spec.Name + "2").Add(t2)
	return out
}

// dirtyVariant applies the spec's noise treatment to a copy of the key's
// words and returns the dirtied key. words[0] (the id token) is preserved.
func dirtyVariant(words []string, spec ScenarioSpec, vocab []string, rng *rand.Rand) string {
	dirty := make([]string, len(words))
	copy(dirty, words)
	switch spec.NoiseKind {
	case "", "word":
		dirty[1+rng.Intn(spec.WordsPerKey)] = vocab[rng.Intn(spec.Vocab)]
	case "format":
		if spec.WordsPerKey >= 2 {
			// Fuse two adjacent filler words: same characters, different
			// tokenization — the key loses two tokens and gains a fused one.
			w := 1 + rng.Intn(spec.WordsPerKey-1)
			fused := make([]string, 0, len(dirty)-1)
			fused = append(fused, dirty[:w]...)
			fused = append(fused, dirty[w]+dirty[w+1])
			fused = append(fused, dirty[w+2:]...)
			dirty = fused
			break
		}
		fallthrough
	case "typo":
		w := 1 + rng.Intn(spec.WordsPerKey)
		dirty[w] = typoWord(dirty[w], rng)
	}
	return joinWords(dirty)
}

// typoWord applies one character-level edit — transpose, substitute, or
// delete — keeping the word non-empty.
func typoWord(w string, rng *rand.Rand) string {
	b := []byte(w)
	if len(b) < 2 {
		return w + "q"
	}
	i := rng.Intn(len(b) - 1)
	switch rng.Intn(3) {
	case 0: // transpose adjacent characters
		b[i], b[i+1] = b[i+1], b[i]
		if b[i] != b[i+1] {
			return string(b)
		}
		fallthrough // equal pair: transposition is a no-op, substitute instead
	case 1: // substitute with a different lowercase letter
		b[i] = 'a' + byte((int(b[i]-'a')+1+rng.Intn(24))%26)
		return string(b)
	default: // delete
		return string(append(b[:i:i], b[i+1:]...))
	}
}
