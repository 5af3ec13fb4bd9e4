package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
)

// applyRandomDelta mutates one scenario relation with a randomized batch of
// deletes, updates (val bumps and match_attr rewrites), and appends (fresh
// keys and duplicates of existing keys, to exercise canonical group merges),
// returning the new database generation.
func applyRandomDelta(t *testing.T, db *relation.Database, relName string, rng *rand.Rand, eid *int64) *relation.Database {
	t.Helper()
	r, err := db.Relation(relName)
	if err != nil {
		t.Fatal(err)
	}
	n := r.Len()
	var d relation.Delta
	taken := make(map[int]bool)
	pick := func() int {
		for {
			i := rng.Intn(n)
			if !taken[i] {
				taken[i] = true
				return i
			}
		}
	}
	for i := 0; i < 2+rng.Intn(4) && len(taken) < n-4; i++ {
		d.Deletes = append(d.Deletes, pick())
	}
	var row relation.Tuple
	for i := 0; i < 3+rng.Intn(5) && len(taken) < n-4; i++ {
		ri := pick()
		row = r.RowInto(row, ri)
		vals := append(relation.Tuple(nil), row...)
		if rng.Intn(2) == 0 {
			vals[2] = relation.Int(int64(1 + rng.Intn(200))) // impact change only
		} else {
			vals[1] = relation.String(fmt.Sprintf("e%07d w%04d w%04d", 900000+rng.Intn(1000), rng.Intn(30), rng.Intn(30)))
		}
		d.Updates = append(d.Updates, relation.RowUpdate{Row: ri, Values: vals})
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		*eid++
		key := fmt.Sprintf("e%07d w%04d w%04d", *eid, rng.Intn(30), rng.Intn(30))
		if rng.Intn(3) == 0 && n > 0 {
			// Duplicate an existing key: merges into its canonical group.
			row = r.RowInto(row, rng.Intn(n))
			key = row[1].String()
		}
		d.Appends = append(d.Appends, relation.Tuple{
			relation.Int(*eid), relation.String(key),
			relation.Int(int64(1 + rng.Intn(100))), relation.Int(*eid),
		})
	}
	nd, _, err := db.ApplyDelta(relation.DBDelta{relName: d})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// applyImpactDelta mutates only the val column of a few random rows: the
// canonical row set and all tuple ids stay fixed, so partition membership
// is stable and only the touched partitions' content hashes change. This
// is the delta shape the solution cache targets.
func applyImpactDelta(t *testing.T, db *relation.Database, relName string, rng *rand.Rand) *relation.Database {
	t.Helper()
	r, err := db.Relation(relName)
	if err != nil {
		t.Fatal(err)
	}
	var d relation.Delta
	var row relation.Tuple
	for i := 0; i < 3+rng.Intn(4); i++ {
		ri := rng.Intn(r.Len())
		row = r.RowInto(row, ri)
		vals := append(relation.Tuple(nil), row...)
		vals[2] = relation.Int(int64(1 + rng.Intn(200)))
		d.Updates = append(d.Updates, relation.RowUpdate{Row: ri, Values: vals})
	}
	nd, _, err := db.ApplyDelta(relation.DBDelta{relName: d})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestPairPrefixAdvanceDifferential is the core delta-path gate: across a
// chain of randomized append/update/delete deltas on both sides, the
// advanced prefix's raw match list must be byte-identical to a fresh
// Stage-1 build, and the cached solve's explanations byte-identical to a
// fresh one-shot ExplainContext on the post-delta data.
func TestPairPrefixAdvanceDifferential(t *testing.T) {
	// shards0 is the unsharded Stage-1 index, the only one there is.
	t.Run("shards0", func(t *testing.T) {
		spec := datagen.ScenarioSpec{
			Rows: 200, Vocab: 120, WordsPerKey: 3,
			Disagree: 0.05, Noise: 0.1, Seed: 11,
		}
		sc := datagen.GenerateScenario(spec)
		popt := linkage.DefaultPairOptions()
		// A high similarity floor keeps the match graph in small stable
		// components, so untouched partitions repeat their content hash
		// across deltas (the serving pattern the cache targets).
		popt.MinSim = 0.9
		db1, db2 := sc.DB1, sc.DB2
		s1, err := BuildSide(sc.Q1, db1, sc.Mattr.LeftAttrs(), "Q1")
		if err != nil {
			t.Fatal(err)
		}
		s2, err := BuildSide(sc.Q2, db2, sc.Mattr.RightAttrs(), "Q2")
		if err != nil {
			t.Fatal(err)
		}
		pp, err := BuildPairPrefix(s1, s2, sc.Mattr, popt, 2)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSolveCache(0)
		p := DefaultParams()
		p.BatchSize = 12
		rng := rand.New(rand.NewSource(31))
		eid := int64(1_000_000)
		ctx := context.Background()
		for step := 0; step < 7; step++ {
			ns1, ns2 := s1, s2
			switch {
			case step >= 5:
				// Id-stable impact updates: partition membership is
				// unchanged, so the solution cache serves every
				// untouched partition.
				db1 = applyImpactDelta(t, db1, sc.Spec.Name+"1", rng)
				ns1, err = BuildSide(sc.Q1, db1, sc.Mattr.LeftAttrs(), "Q1")
				if err != nil {
					t.Fatal(err)
				}
			default:
				if step%3 != 1 {
					db2 = applyRandomDelta(t, db2, sc.Spec.Name+"2", rng, &eid)
					ns2, err = BuildSide(sc.Q2, db2, sc.Mattr.RightAttrs(), "Q2")
					if err != nil {
						t.Fatal(err)
					}
				}
				if step%3 != 0 {
					db1 = applyRandomDelta(t, db1, sc.Spec.Name+"1", rng, &eid)
					ns1, err = BuildSide(sc.Q1, db1, sc.Mattr.LeftAttrs(), "Q1")
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			npp, diff, err := pp.Advance(ns1, ns2, 2)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			fresh, err := BuildPairPrefix(ns1, ns2, sc.Mattr, popt, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(npp.Raw, fresh.Raw) {
				t.Fatalf("step %d (%+v): advanced raw matches diverge from fresh build: %d vs %d",
					step, diff, len(npp.Raw), len(fresh.Raw))
			}
			got, err := ExplainPrefixContext(ctx, npp, nil, 0, p, cache)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ExplainContext(ctx, Input{
				DB1: db1, DB2: db2, Q1: sc.Q1, Q2: sc.Q2, Mattr: sc.Mattr,
				PairOpts: &popt,
			}, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Instance.Matches, want.Instance.Matches) {
				t.Fatalf("step %d: calibrated matches diverge", step)
			}
			if !reflect.DeepEqual(got.Expl, want.Expl) {
				t.Fatalf("step %d (%+v): explanations diverge from fresh one-shot", step, diff)
			}
			pp, s1, s2 = npp, ns1, ns2
		}
		// The two id-stable steps must each have served most partitions
		// from the cache (misses on those steps are exactly the dirty
		// partitions). Id-shifting steps legitimately repack partitions;
		// see the SmartPartition headroom note in ROADMAP.md.
		cs := cache.Stats()
		if cs.Hits < 20 {
			t.Fatalf("solution cache barely hit across delta chain: %+v", cs)
		}
	})
}

// TestPairPrefixAdvanceIdentity: unchanged side pointers return the same
// prefix with a zero diff.
func TestPairPrefixAdvanceIdentity(t *testing.T) {
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{Rows: 50, Vocab: 20, Seed: 3})
	s1, err := BuildSide(sc.Q1, sc.DB1, sc.Mattr.LeftAttrs(), "Q1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildSide(sc.Q2, sc.DB2, sc.Mattr.RightAttrs(), "Q2")
	if err != nil {
		t.Fatal(err)
	}
	pp, err := BuildPairPrefix(s1, s2, sc.Mattr, linkage.DefaultPairOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	same, diff, err := pp.Advance(s1, s2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same != pp || diff != (PairDiff{}) {
		t.Fatalf("identity advance must return the receiver: %+v", diff)
	}
}

// TestSolveCacheByteIdentical: a cached re-solve of the same instance is
// served entirely from the cache and reproduces the uncached output
// byte-for-byte, including merged stats.
func TestSolveCacheByteIdentical(t *testing.T) {
	in := academicInput(t)
	inst, _, err := BuildInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.BatchSize = 16
	plainExpl, plainStats, err := SolveInstance(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSolveCache(0)
	ctx := context.Background()
	first, firstStats, err := SolveInstanceCached(ctx, inst, p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, plainExpl) {
		t.Fatal("cached cold solve diverges from plain solve")
	}
	if firstStats.SolveCacheMisses != firstStats.Partitions || firstStats.SolveCacheHits != 0 {
		t.Fatalf("cold solve: want %d misses, got %+v", firstStats.Partitions, firstStats)
	}
	second, secondStats, err := SolveInstanceCached(ctx, inst, p, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, plainExpl) {
		t.Fatal("cache-hit solve diverges from plain solve")
	}
	if secondStats.SolveCacheHits != secondStats.Partitions || secondStats.SolveCacheMisses != 0 {
		t.Fatalf("warm solve: want %d hits, got hits=%d misses=%d",
			secondStats.Partitions, secondStats.SolveCacheHits, secondStats.SolveCacheMisses)
	}
	// Replayed stats must reproduce the solver-effort totals too.
	if secondStats.MILPVars != plainStats.MILPVars || secondStats.Nodes != plainStats.Nodes ||
		secondStats.Iters != plainStats.Iters {
		t.Fatalf("replayed stats diverge: %+v vs %+v", secondStats, plainStats)
	}
	cs := cache.Stats()
	if cs.Hits != int64(secondStats.SolveCacheHits) || cs.Misses != int64(firstStats.SolveCacheMisses) {
		t.Fatalf("cache counters inconsistent: %+v", cs)
	}
}
