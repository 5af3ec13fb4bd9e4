package serve

import (
	"regexp"
	"strings"
	"testing"
)

// sqlCorpus mirrors the valid entries of the query-engine equivalence
// corpus: every shape the SQL dialect supports. None of the string
// literals contain spaces, so whitespace-mangling variants below are safe.
var sqlCorpus = []string{
	"SELECT COUNT(Program) FROM D1",
	"SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'",
	"SELECT SUM(Num_bach) FROM D3",
	"SELECT AVG(Num_bach) FROM D3",
	"SELECT MAX(Num_bach) FROM D3",
	"SELECT MIN(Num_bach) FROM D3",
	"SELECT COUNT(*) FROM D3",
	"SELECT Program, COUNT(Degree) AS I FROM D1 GROUP BY Program",
	"SELECT DISTINCT Program FROM D1",
	"SELECT DISTINCT Degree, Program FROM D1",
	"SELECT Major FROM D2 WHERE Univ = 'A'",
	"SELECT COUNT(College) FROM D3 WHERE Num_bach * 2 >= 4",
	"SELECT COUNT(D3.College) FROM D3, D4 WHERE Num_bach > Num_major",
	"SELECT COUNT(Program) FROM D1 WHERE Program = 'CS' OR Degree = 'B.A.'",
	"SELECT COUNT(p) FROM (SELECT Program AS p FROM D1 WHERE Degree = 'B.S.') sub",
	"SELECT SUM(bach_degr) FROM School, Stats WHERE Univ_name = 'UMass-Amherst' AND School.ID = Stats.ID",
	"SELECT COUNT(Program) FROM School s JOIN Stats st ON s.ID = st.ID WHERE s.Univ_name = 'OSU'",
	"SELECT Program FROM Stats WHERE ID IN (SELECT ID FROM School WHERE City = 'Amherst')",
	"SELECT Program FROM Stats WHERE ID NOT IN (SELECT ID FROM School WHERE City = 'Amherst')",
	"SELECT COUNT(name) FROM T WHERE name LIKE '%a'",
	"SELECT COUNT(name) FROM T WHERE name NOT LIKE '_eta'",
	"SELECT COUNT(name) FROM T WHERE score IS NULL",
	"SELECT COUNT(name) FROM T WHERE score IS NOT NULL",
	"SELECT name, score FROM T",
	"SELECT score, COUNT(*) FROM T GROUP BY score",
	"SELECT name FROM T WHERE score IN (1, 2.5)",
	"SELECT name FROM T WHERE name IN ('alpha', 'gamma', 'nope')",
	"SELECT COUNT(name) FROM T WHERE NOT score = 1",
	"SELECT COUNT(name) FROM T WHERE score >= 1 AND score <= 3",
}

var sqlKeywords = regexp.MustCompile(`\b(SELECT|FROM|WHERE|GROUP|BY|AND|OR|NOT|IN|IS|NULL|LIKE|DISTINCT|AS|JOIN|ON)\b`)

// TestCanonicalQueryRoundTrip pins that canonicalization is a fixpoint
// (re-canonicalizing the canonical form changes nothing) and that
// whitespace and keyword-case variants of every corpus query map to the
// same canonical form — and therefore the same cache key.
func TestCanonicalQueryRoundTrip(t *testing.T) {
	for _, sql := range sqlCorpus {
		canon, _, err := canonicalQuery(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		again, _, err := canonicalQuery(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if again != canon {
			t.Fatalf("canonicalization is not a fixpoint:\n  %q\n  %q", canon, again)
		}
		variants := []string{
			strings.ReplaceAll(sql, " ", "  "),
			strings.ReplaceAll(sql, " ", " \t"),
			sqlKeywords.ReplaceAllStringFunc(sql, strings.ToLower),
			"  " + strings.ReplaceAll(sqlKeywords.ReplaceAllStringFunc(sql, strings.ToLower), " ", "\n") + "  ",
		}
		for _, v := range variants {
			got, _, err := canonicalQuery(v)
			if err != nil {
				t.Fatalf("variant %q: %v", v, err)
			}
			if got != canon {
				t.Fatalf("variant maps to different canonical form:\n  input  %q\n  got    %q\n  want   %q", v, got, canon)
			}
		}
	}
}

// TestCanonicalQueryParens checks that redundant parentheses around WHERE
// terms do not change the canonical form.
func TestCanonicalQueryParens(t *testing.T) {
	pairs := [][2]string{
		{"SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'",
			"SELECT COUNT(Major) FROM D2 WHERE (Univ = 'A')"},
		{"SELECT COUNT(Program) FROM D1 WHERE Program = 'CS' AND Degree = 'B.A.'",
			"SELECT COUNT(Program) FROM D1 WHERE (Program = 'CS') AND ((Degree = 'B.A.'))"},
	}
	for _, p := range pairs {
		a, _, err := canonicalQuery(p[0])
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := canonicalQuery(p[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("parenthesized variant diverged:\n  %q\n  %q", a, b)
		}
	}
}

// TestCanonicalMatchesRoundTrip pins match-spec canonicalization.
func TestCanonicalMatchesRoundTrip(t *testing.T) {
	canon, _, err := canonicalMatches("D1.Program  ==   D2.Major")
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := canonicalMatches(canon)
	if err != nil {
		t.Fatal(err)
	}
	if canon != again {
		t.Fatalf("matches canonicalization not a fixpoint: %q vs %q", canon, again)
	}
}

// TestCacheKeyDistinguishesParams ensures solver-relevant parameters
// participate in the key.
func TestCacheKeyDistinguishesParams(t *testing.T) {
	base := Request{Dataset: "d", Q1: "q1", Q2: "q2", Matches: "m"}
	k := func(rq Request) string { return cacheKey("d", "q1", "q2", "m", &rq) }
	ref := k(base)
	for name, rq := range map[string]Request{
		"alpha":   {Alpha: 0.95},
		"beta":    {Beta: 0.8},
		"batch":   {BatchSize: 32},
		"timeout": {TimeoutMS: 100},
		"mst":     {MinSharedTokens: 2},
		"minsim":  {MinSim: 0.5},
		"minprob": {MinProb: 0.5},
		"summary": {NoSummary: true},
	} {
		if k(rq) == ref {
			t.Fatalf("parameter %s does not affect the cache key", name)
		}
	}
	if k(base) != ref {
		t.Fatal("cache key is not deterministic")
	}
}

// TestCacheKeyEquatesEquivalentParams: request spellings that the solve
// treats identically — MinSharedTokens below 1, MinSim at or below 0
// versus the 0.05 default, zero priors versus 0.9, TimeoutMS 0 versus
// 60000 and any two negative timeouts, MinProb 0 versus 0.02, any two
// worker counts — must share one cache key, or each spelling pays its own
// solve.
func TestCacheKeyEquatesEquivalentParams(t *testing.T) {
	k := func(rq Request) string { return cacheKey("d", "q1", "q2", "m", &rq) }
	for name, pair := range map[string][2]Request{
		"mst 0/1":          {{MinSharedTokens: 0}, {MinSharedTokens: 1}},
		"mst -2/1":         {{MinSharedTokens: -2}, {MinSharedTokens: 1}},
		"minsim 0/0.05":    {{MinSim: 0}, {MinSim: 0.05}},
		"minsim -1/0.05":   {{MinSim: -1}, {MinSim: 0.05}},
		"alpha 0/0.9":      {{Alpha: 0}, {Alpha: 0.9}},
		"beta 0/0.9":       {{Beta: 0}, {Beta: 0.9}},
		"timeout 0/60000":  {{TimeoutMS: 0}, {TimeoutMS: 60000}},
		"timeout -1/-500":  {{TimeoutMS: -1}, {TimeoutMS: -500}},
		"minprob 0/0.02":   {{MinProb: 0}, {MinProb: 0.02}},
		"workers 1/2":      {{Workers: 1}, {Workers: 2}},
		"all defaults/set": {{}, {MinSharedTokens: 1, MinSim: 0.05, Alpha: 0.9, Beta: 0.9, TimeoutMS: 60000, MinProb: 0.02}},
	} {
		if a, b := k(pair[0]), k(pair[1]); a != b {
			t.Errorf("%s: equivalent requests get distinct keys:\n%q\n%q", name, a, b)
		}
	}
}
