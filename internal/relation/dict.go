package relation

import (
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Tokenize lower-cases and splits a string on non-alphanumeric runes. It is
// the canonical tokenizer of the record-linkage stage; it lives in this
// package so the interned-string dictionary can cache token ids per distinct
// string (the linkage package re-exports it).
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Dict is an interned string dictionary shared across a dataset: every
// distinct string is stored once and represented by a dense uint32 code, so
// string equality is integer comparison, repeated CSV cells parse once, and
// tokenization runs once per distinct string instead of once per row. Token
// ids are dict codes of the token strings themselves.
//
// A Dict is append-only — codes are never invalidated — and safe for
// concurrent use.
type Dict struct {
	mu sync.RWMutex
	// guarded by mu
	ids map[string]uint32
	// guarded by mu
	strs []string
	// guarded by mu
	// toks[code]: sorted distinct token codes (nil = not yet computed)
	toks [][]uint32
	// guarded by mu
	// parsed: raw CSV cell → parsed value cache
	parsed map[string]Value
}

// NewDict creates an empty dictionary.
func NewDict() *Dict {
	//lint:ignore guarded constructor: the fresh Dict is not shared until returned
	return &Dict{ids: make(map[string]uint32)}
}

// Intern returns the code of s, adding it to the dictionary if new.
func (d *Dict) Intern(s string) uint32 {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(s)
}

func (d *Dict) internLocked(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	d.toks = append(d.toks, nil)
	return id
}

// Lookup returns the code of s without interning it.
func (d *Dict) Lookup(s string) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[s]
	return id, ok
}

// String returns the string behind a code.
func (d *Dict) String(code uint32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strs[code]
}

// Strings returns a snapshot of the backing string table. The dictionary is
// append-only, so entries of the returned slice never change; codes interned
// after the snapshot need a fresh call. Compiled-query accessors bind one
// snapshot and then read per cell without locking.
//
//lint:view
func (d *Dict) Strings() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strs
}

// Len returns the number of interned strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strs)
}

// noTokens is the cached token list of strings with no tokens, so they are
// not re-tokenized on every Tokens call (nil means "not computed yet").
var noTokens = []uint32{}

// Tokens returns the sorted distinct token codes of the string behind code,
// computing and caching them on first use. Token strings are interned into
// the same dictionary, so two strings share a token iff their token lists
// share a code.
//
//lint:view
func (d *Dict) Tokens(code uint32) []uint32 {
	d.mu.RLock()
	t := d.toks[code]
	d.mu.RUnlock()
	if t != nil {
		return t
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tokensLocked(code)
}

// tokensLocked computes and caches the token list of code under the write
// lock.
func (d *Dict) tokensLocked(code uint32) []uint32 {
	if t := d.toks[code]; t != nil {
		return t
	}
	words := Tokenize(d.strs[code])
	if len(words) == 0 {
		d.toks[code] = noTokens
		return noTokens
	}
	out := make([]uint32, 0, len(words))
	for _, w := range words {
		out = append(out, d.internLocked(w))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	// Dedupe in place (a string can repeat a token).
	uniq := out[:1]
	for _, t := range out[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	d.toks[code] = uniq
	return uniq
}

// ParseValue parses a raw CSV cell like the package-level ParseValue,
// caching the result per distinct raw string: repeated cells — the common
// case in real columns — cost one map lookup instead of a re-parse and a
// fresh allocation.
func (d *Dict) ParseValue(raw string) Value {
	d.mu.RLock()
	v, ok := d.parsed[raw]
	d.mu.RUnlock()
	if ok {
		return v
	}
	return parseValueInto(raw, d)
}

// parseValueInto parses and caches under the write lock. The cache key is
// cloned so the dictionary never retains a CSV reader's record buffer.
func parseValueInto(raw string, d *Dict) Value {
	v := ParseValue(raw)
	key := strings.Clone(raw)
	if v.kind == KindString {
		// ParseValue returns the raw text verbatim for strings; point the
		// value at the cloned, interned copy so the cache, the dictionary,
		// and every column storing this cell share one allocation.
		v.s = key
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v.kind == KindString {
		v.s = d.strs[d.internLocked(v.s)]
	}
	if d.parsed == nil {
		d.parsed = make(map[string]Value)
	}
	if cached, ok := d.parsed[key]; ok {
		return cached
	}
	d.parsed[key] = v
	return v
}
