// Package linkage derives the initial tuple mapping Mtuple (Definition 2.4)
// that explain3d refines: pair-wise similarities between canonical tuples
// over the matching attributes (token Jaccard for strings, normalized
// Euclidean for numbers, mean combination — Section 5.1.2), token blocking
// so large relations avoid the full cross product, the bucket-based
// similarity-to-probability calibration of the paper, and the R-Swoosh
// entity-resolution baseline.
package linkage

import (
	"strings"
	"unicode"

	"explain3d/internal/relation"
)

// Tokenize lower-cases and splits a string on non-alphanumeric runes. It is
// the canonical tokenizer of the record-linkage stage.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// TokenSet builds the token set of a string.
func TokenSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Tokenize(s) {
		set[t] = true
	}
	return set
}

// JaccardTokens computes |A∩B| / |A∪B| over two token sets. Two empty sets
// are defined as similarity 0 (no evidence of a match).
func JaccardTokens(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for t := range small {
		if large[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// StringSim is token-wise Jaccard similarity between two strings.
func StringSim(a, b string) float64 {
	return JaccardTokens(TokenSet(a), TokenSet(b))
}

// jaccardSorted computes |A∩B| / |A∪B| over two sorted distinct token-id
// slices by a linear merge — no hashing, no allocation. It is the columnar
// counterpart of JaccardTokens and produces bit-identical similarities (the
// intersection and union counts are the same integers).
func jaccardSorted(a, b []uint32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// sharedAtLeast reports whether two sorted distinct token-id slices share
// at least m elements, bailing out as soon as the answer is known. It backs
// the exact verification of blocking candidates discovered with skipped
// (stop-word-frequency) posting lists.
func sharedAtLeast(a, b []uint32, m int) bool {
	if m <= 0 {
		return true
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			if inter >= m {
				return true
			}
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// NumericSim is the paper's normalized Euclidean similarity
// 1 / (1 + |a−b|²).
func NumericSim(a, b float64) float64 {
	d := a - b
	return 1 / (1 + d*d)
}

// ValueSim dispatches on value kinds: numeric pairs use NumericSim, all
// other non-NULL pairs compare token sets of their string rendering. NULLs
// have similarity 0 to everything.
func ValueSim(a, b relation.Value) float64 {
	if a.IsNull() || b.IsNull() {
		return 0
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return NumericSim(af, bf)
	}
	return StringSim(a.String(), b.String())
}
