package relation

import (
	"strings"
	"sync"
)

// Dict is an interned string dictionary shared across a dataset: every
// distinct string is stored once and represented by a dense uint32 code, so
// string equality is integer comparison and repeated CSV cells parse once.
// It stores strings and parsed cells only; record linkage tokenizes the
// strings behind a scan's codes itself, into its own token space.
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
