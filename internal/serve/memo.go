package serve

import (
	"errors"
	"slices"
	"sync"
)

// errBuildPanicked is what requests waiting on a Stage-1 build see when the
// build panicked; the panic itself fails the builder's own flight.
var errBuildPanicked = errors.New("serve: Stage-1 build panicked")

// stage1Memo is a dataset's Stage-1 memo: one entry per Stage-1 key (a
// query pair's prefix), tagged with the pointer inputs it was built from (the
// relations its queries read). Copy-on-write deltas keep untouched relations
// pointer-identical across generations, so equal inputs mean an entry is
// valid whichever generation built it.
type stage1Memo struct {
	mu sync.Mutex
	// guarded by mu
	entries map[string]*memoEntry
}

// memoEntry is one Stage-1 value under construction or built; done closes
// when val/advanced/err are final.
type memoEntry struct {
	version int64 // the generation it was built for
	inputs  []any
	done    chan struct{}
	// val/advanced/err are written by the builder before close(done).
	val      any
	advanced bool
	err      error
}

// get returns key's value for a request on generation version whose pointer
// inputs are in. An entry with equal inputs is a hit, shared with its build
// if that is still running. Otherwise build runs; prev is the finished value
// of the entry being replaced, or nil. The new entry replaces the old one
// unless the old one belongs to a newer generation, in which case the build
// serves this request alone. A failed or panicking build releases its
// waiters and is not kept.
func (m *stage1Memo) get(key string, version int64, in []any, build func(prev any) (any, bool, error)) (any, bool, error) {
	m.mu.Lock()
	e := m.entries[key]
	if e != nil && slices.Equal(e.inputs, in) {
		m.mu.Unlock()
		<-e.done
		return e.val, e.advanced, e.err
	}
	ne := &memoEntry{version: version, inputs: in, done: make(chan struct{})}
	var prev any
	if e == nil || e.version <= version {
		if e != nil {
			select {
			case <-e.done:
				prev = e.val // failed builds leave the map before done closes
			default:
			}
		}
		if m.entries == nil {
			m.entries = make(map[string]*memoEntry)
		}
		m.entries[key] = ne
	}
	m.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			ne.err = errBuildPanicked
		}
		if ne.err != nil {
			m.mu.Lock()
			if m.entries[key] == ne {
				delete(m.entries, key)
			}
			m.mu.Unlock()
		}
		close(ne.done)
	}()
	ne.val, ne.advanced, ne.err = build(prev)
	completed = true
	return ne.val, ne.advanced, ne.err
}

// len reports the number of entries.
func (m *stage1Memo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
