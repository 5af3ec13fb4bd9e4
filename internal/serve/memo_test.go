package serve

import (
	"errors"
	"testing"
)

// TestMemoPanicReleasesWaiters panics inside a build: the entry requests
// wait on is released with errBuildPanicked, it is not kept, and the next
// ask builds afresh.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	var m stage1Memo
	in := []any{new(int)}
	var e *memoEntry
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic must reach the builder")
			}
		}()
		m.get("k", 0, in, func(any) (any, bool, error) {
			m.mu.Lock()
			e = m.entries["k"]
			m.mu.Unlock()
			panic("injected build failure")
		})
	}()
	<-e.done // what a waiter blocks on
	if !errors.Is(e.err, errBuildPanicked) {
		t.Fatalf("waiters see %v, want errBuildPanicked", e.err)
	}
	if n := m.len(); n != 0 {
		t.Fatalf("entries after a panicked build = %d, want 0", n)
	}
	v, _, err := m.get("k", 0, in, func(any) (any, bool, error) { return 7, false, nil })
	if err != nil || v != 7 {
		t.Fatalf("rebuild = %v, %v; want 7, nil", v, err)
	}
}

// TestMemoGenerations pins the replacement rule: equal inputs hit whatever
// generation built the entry; changed inputs rebuild from the previous value
// and replace it; an older generation's build never displaces a newer entry.
func TestMemoGenerations(t *testing.T) {
	var m stage1Memo
	a, b, c := []any{new(int)}, []any{new(int)}, []any{new(int)}
	builds := 0
	get := func(version int64, in []any, val int) (any, any) {
		t.Helper()
		var prev any
		v, _, err := m.get("k", version, in, func(p any) (any, bool, error) {
			builds, prev = builds+1, p
			return val, false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, prev
	}
	get(0, a, 1)
	if v, _ := get(3, a, 2); v != 1 || builds != 1 {
		t.Fatalf("equal inputs on a later generation: value %v after %d builds, want 1 after 1", v, builds)
	}
	if v, prev := get(3, b, 2); v != 2 || prev != 1 || builds != 2 {
		t.Fatalf("changed inputs: value %v from prev %v after %d builds, want 2 from 1 after 2", v, prev, builds)
	}
	if v, prev := get(1, c, 3); v != 3 || prev != nil {
		t.Fatalf("older generation: value %v from prev %v, want 3 from nil", v, prev)
	}
	if v, _ := get(3, b, 4); v != 2 || builds != 3 {
		t.Fatalf("older generation's build displaced the newer entry: value %v after %d builds", v, builds)
	}
	if n := m.len(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}
