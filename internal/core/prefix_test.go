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
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
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
		for step := 0; step < 10; step++ {
			ns1, ns2 := s1, s2
			switch {
			case step == 9:
				// Deletes only on side 2, next to side-1 appends that copy
				// keys of side-2 rows past the deleted ones: side 2's
				// index is rebuilt without dirty rows, and side 1's dirty
				// rows must find their partners at the shifted ids.
				rel2 := sc.Spec.Name + "2"
				r2, err := db2.Relation(rel2)
				if err != nil {
					t.Fatal(err)
				}
				n2 := r2.Len()
				var app relation.Delta
				var row relation.Tuple
				for _, ri := range []int{n2 - 1, n2 - 2, n2 - 3} {
					row = r2.RowInto(row, ri)
					eid++
					app.Appends = append(app.Appends, relation.Tuple{
						relation.Int(eid), row[1], relation.Int(int64(1 + rng.Intn(100))), relation.Int(eid),
					})
				}
				del := relation.Delta{Deletes: []int{rng.Intn(n2 / 2), n2/2 + rng.Intn(n2/4)}}
				if db2, _, err = db2.ApplyDelta(relation.DBDelta{rel2: del}); err != nil {
					t.Fatal(err)
				}
				ns2, err = BuildSide(sc.Q2, db2, sc.Mattr.RightAttrs(), "Q2")
				if err != nil {
					t.Fatal(err)
				}
				if db1, _, err = db1.ApplyDelta(relation.DBDelta{sc.Spec.Name + "1": app}); err != nil {
					t.Fatal(err)
				}
				ns1, err = BuildSide(sc.Q1, db1, sc.Mattr.LeftAttrs(), "Q1")
				if err != nil {
					t.Fatal(err)
				}
			case step >= 7:
				// Impact-only updates on side 2 (and on both sides at
				// step 8): side 2's matched-column content is unchanged
				// row for row, so its index is reused as is.
				db2 = applyImpactDelta(t, db2, sc.Spec.Name+"2", rng)
				ns2, err = BuildSide(sc.Q2, db2, sc.Mattr.RightAttrs(), "Q2")
				if err != nil {
					t.Fatal(err)
				}
				if step == 8 {
					db1 = applyImpactDelta(t, db1, sc.Spec.Name+"1", rng)
					ns1, err = BuildSide(sc.Q1, db1, sc.Mattr.LeftAttrs(), "Q1")
					if err != nil {
						t.Fatal(err)
					}
				}
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
			// Side 2's index is reused when side 2 is unchanged or took
			// impact-only updates, and rebuilt after the random deltas,
			// which delete rows and rewrite keys.
			reused := npp.Index == pp.Index
			switch {
			case !diff.Changed2 || step == 7 || step == 8:
				if !reused {
					t.Fatalf("step %d (%+v): side 2's index was rebuilt, want it reused", step, diff)
				}
			case step < 7:
				if reused {
					t.Fatalf("step %d (%+v): side 2's index was reused, want it rebuilt", step, diff)
				}
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
		// The id-stable steps must each have served most partitions
		// from the cache (misses on those steps are exactly the dirty
		// partitions). Id-shifting steps legitimately repack partitions;
		// see the SmartPartition headroom note in ROADMAP.md.
		cs := cache.Stats()
		if cs.Hits < 20 {
			t.Fatalf("solution cache barely hit across delta chain: %+v", cs)
		}
	})
}

// TestPairPrefixAdvanceSide2SniffFlip: a side-2 delta that flips the
// matched column between numeric-only and tokenized changes which rows
// block at all, so Advance must rescan in full. The left column is
// tokenized throughout; while the right one is numeric-only no pair shares
// a blocking token, and once a string cell tokenizes it every untouched
// right row becomes a candidate. Both directions must reproduce the fresh
// build's raw list.
func TestPairPrefixAdvanceSide2SniffFlip(t *testing.T) {
	left := relation.New("L", "k", "v")
	for i := 1; i <= 12; i++ {
		left.Append(int64(i), int64(i))
	}
	left.Append("w1 w2", int64(5))
	right := relation.New("R", "k", "v")
	for i := 1; i <= 10; i++ {
		right.Append(int64(i+2), int64(2*i))
	}
	db1, db2 := relation.NewDatabase("d1"), relation.NewDatabase("d2")
	db1.Add(left)
	db2.Add(right)
	q1 := sqlparse.MustParse("SELECT SUM(v) FROM L")
	q2 := sqlparse.MustParse("SELECT SUM(v) FROM R")
	mattr, err := schemamap.ParseAll("L.k == R.k")
	if err != nil {
		t.Fatal(err)
	}
	popt := linkage.DefaultPairOptions()
	s1, err := BuildSide(q1, db1, mattr.LeftAttrs(), "Q1")
	if err != nil {
		t.Fatal(err)
	}
	side2 := func(db *relation.Database) *BuiltSide {
		s, err := BuildSide(q2, db, mattr.RightAttrs(), "Q2")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pp, err := BuildPairPrefix(s1, side2(db2), mattr, popt, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps := []relation.Delta{
		{Appends: []relation.Tuple{{relation.String("w2 w3"), relation.Int(7)}}}, // numeric → tokenized
		{Deletes: []int{10}}, // tokenized → numeric
	}
	for step, dl := range steps {
		ndb2, _, err := db2.ApplyDelta(relation.DBDelta{"R": dl})
		if err != nil {
			t.Fatal(err)
		}
		ns2 := side2(ndb2)
		npp, diff, err := pp.Advance(s1, ns2, 1)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := BuildPairPrefix(s1, ns2, mattr, popt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(npp.Raw, fresh.Raw) {
			t.Fatalf("step %d: advanced raw list %v, fresh build %v", step, npp.Raw, fresh.Raw)
		}
		if !diff.FullRescan {
			t.Fatalf("step %d: tokenized-status flip must force a full rescan: %+v", step, diff)
		}
		if step == 0 && len(fresh.Raw) <= len(pp.Raw) {
			t.Fatalf("flip to tokenized should add candidates: %d -> %d", len(pp.Raw), len(fresh.Raw))
		}
		pp, db2 = npp, ndb2
	}
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
