package core

import (
	"fmt"
	"reflect"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
)

// BenchmarkPairPrefixAdvance times PairPrefix.Advance at serve-delta's
// shape: a 40000-row scenario, MinSim 0.5, and one 1% batch on one side.
// "impact" batches rewrite val on a clustered row range, so the side's
// matched-column content is unchanged; "append" batches add rows with
// fresh keys. Every iteration advances the same base prefix to
// the same post-delta sides; the advanced raw list is checked once against
// a fresh build before timing.
func BenchmarkPairPrefixAdvance(b *testing.B) {
	const rows, workers = 40000, 2
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: rows, Vocab: rows / 10, WordsPerKey: 3,
		Disagree: 0.01, Noise: 0.05, NoiseKind: "typo", Skew: 1.5, Seed: 1,
	})
	popt := linkage.DefaultPairOptions()
	popt.MinSim = 0.5
	side1 := func(db *relation.Database) *BuiltSide {
		s, err := BuildSide(sc.Q1, db, sc.Mattr.LeftAttrs(), "Q1")
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	side2 := func(db *relation.Database) *BuiltSide {
		s, err := BuildSide(sc.Q2, db, sc.Mattr.RightAttrs(), "Q2")
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s1, s2 := side1(sc.DB1), side2(sc.DB2)
	pp, err := BuildPairPrefix(s1, s2, sc.Mattr, popt, workers)
	if err != nil {
		b.Fatal(err)
	}
	for _, side := range []int{1, 2} {
		for _, kind := range []string{"impact", "append"} {
			spec := datagen.DeltaSpec{Updates: rows / 100, Clustered: true, Seed: 7}
			if kind == "append" {
				spec = datagen.DeltaSpec{Appends: rows / 100, Seed: 7}
			}
			db, rel := sc.DB1, sc.Spec.Name+"1"
			if side == 2 {
				db, rel = sc.DB2, sc.Spec.Name+"2"
			}
			r, err := db.Relation(rel)
			if err != nil {
				b.Fatal(err)
			}
			d, err := sc.GenerateDelta(r, spec)
			if err != nil {
				b.Fatal(err)
			}
			ndb, _, err := db.ApplyDelta(relation.DBDelta{rel: d})
			if err != nil {
				b.Fatal(err)
			}
			ns1, ns2 := s1, s2
			if side == 1 {
				ns1 = side1(ndb)
			} else {
				ns2 = side2(ndb)
			}
			npp, _, err := pp.Advance(ns1, ns2, workers)
			if err != nil {
				b.Fatal(err)
			}
			fresh, err := BuildPairPrefix(ns1, ns2, sc.Mattr, popt, workers)
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(npp.Raw, fresh.Raw) {
				b.Fatalf("side%d/%s: advanced raw list diverges from a fresh build", side, kind)
			}
			b.Run(fmt.Sprintf("side%d/%s", side, kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := pp.Advance(ns1, ns2, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
