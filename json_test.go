package explain3d

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/query"
	"explain3d/internal/relation"
)

// oracleJSON is the body AppendResultJSON must reproduce: json.Marshal of
// the converted Result, with the given summary lines.
func oracleJSON(res *core.Result, summary []string) ([]byte, error) {
	out := ConvertResult(res, false)
	out.Summary = summary
	return json.Marshal(out)
}

// checkAppendJSON compares appendResultJSON with the oracle: the same
// bytes after a prefix it must keep, or the same error.
func checkAppendJSON(t *testing.T, label string, res *core.Result, summary []string) {
	t.Helper()
	want, werr := oracleJSON(res, summary)
	prefix := []byte("prefix:")
	got, gerr := appendResultJSON(append([]byte(nil), prefix...), res, summary)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s: error %v, want %v", label, gerr, werr)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: prefix lost: %.40q", label, got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("%s: bodies differ at byte %d of %d/%d:\n got %q\nwant %q", label, i, len(got), len(want),
			got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
}

// TestAppendResultJSONMatchesMarshal checks whole solved results, with and
// without Stage-3 summaries, against json.Marshal(ConvertResult(...)).
func TestAppendResultJSONMatchesMarshal(t *testing.T) {
	db1, db2 := figure1Databases()
	pub, err := Explain(db1, db2, "SELECT COUNT(Program) FROM D1",
		"SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'", "Program == Major", nil)
	if err != nil {
		t.Fatal(err)
	}
	scen := deltaShapeResult(t, 2000)
	if len(scen.Expl.Evidence) == 0 || len(scen.Expl.Prov)+len(scen.Expl.Val) == 0 {
		t.Fatalf("scenario result too small to check: %+v", scen.Stats)
	}
	for _, c := range []struct {
		label string
		res   *core.Result
	}{{"figure1", pub.res}, {"scenario", scen}} {
		for _, withSummary := range []bool{false, true} {
			got, err := AppendResultJSON(nil, c.res, withSummary)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ConvertResult(c.res, withSummary))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (summary %v): AppendResultJSON differs from json.Marshal(ConvertResult)", c.label, withSummary)
			}
		}
	}
}

// TestAppendJSONStrings pins the escapes json.Marshal applies.
func TestAppendJSONStrings(t *testing.T) {
	for _, s := range []string{
		"", "plain ascii", `quote " backslash \`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
		"<script>&amp;</script>", "line\u2028para\u2029", "héllo wörld ✓ 🚀",
		"\xff", "a\xc3", "\xc3(", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x80", "ok\xe2\x80\xa8",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendJSONFloats pins json.Marshal's float format at the exponent
// cut-offs and its error on non-finite values; each value goes through
// the cache twice.
func TestAppendJSONFloats(t *testing.T) {
	w := &jsonWriter{}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, 2.5e-6, 1e-6, 9.999999e-7, 1e-7, 1.5e-10,
		5e-324, math.SmallestNonzeroFloat64, 1e20, 1e21, 123456789012345678901, 1e100, -1e21, math.MaxFloat64,
		-1.2345678901234567e-6, -123456789012345678, 1e-300,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if got := w.appendFloat(nil, f); !bytes.Equal(got, want) {
				t.Errorf("appendFloat(%v) pass %d = %s, want %s", f, pass, got, want)
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, werr := json.Marshal(f)
		w := &jsonWriter{}
		w.appendFloat(nil, f)
		if werr == nil || w.err == nil || w.err.Error() != werr.Error() {
			t.Errorf("appendFloat(%v) error %v, want %v", f, w.err, werr)
		}
	}
}

// fuzzStrings are the string cells the fuzz results draw from besides the
// fuzzer's own: quotes, control characters, HTML characters, the JSONP
// separators and invalid UTF-8.
var fuzzStrings = []string{
	"", "CS", `say "hi"`, `back\slash`, "tab\there", "nl\n", "\x00\x1f", "<a href=x>&</a>",
	"\u2028\u2029", "naïve ✓", "\xff\xfe", "trunc\xe2\x82", "a / b",
}

// fuzzFloats cover every magnitude json.Marshal formats differently, plus
// negative zero.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -2, 0.95, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, -3.5e-9, 1e20, 1e21, 4.2e22,
	5e-324, math.MaxFloat64, 123.456,
}

// fuzzResult builds a random core.Result whose canonical relations hold
// string, int, float, bool, NULL and mixed cells; s and f seed the string
// and float pools with the fuzzer's own values.
func fuzzResult(rng *rand.Rand, s string, f float64) (*core.Result, []string) {
	strs := append(append([]string(nil), fuzzStrings...), s)
	floats := append(append([]float64(nil), fuzzFloats...), f)
	cell := func() any {
		switch rng.Intn(6) {
		case 0, 1:
			return strs[rng.Intn(len(strs))]
		case 2:
			return rng.Int63n(2000) - 1000
		case 3:
			return floats[rng.Intn(len(floats))]
		case 4:
			return rng.Intn(2) == 0
		default:
			return nil
		}
	}
	canon := func() *core.Canonical {
		ncols, n := 1+rng.Intn(3), rng.Intn(6)
		cols := []string{"a", "b", "c"}[:ncols]
		rel := relation.New("T", append(cols, query.ImpactColumn)...)
		c := &core.Canonical{Rel: rel}
		for i := 0; i < n; i++ {
			row := make([]any, ncols+1)
			for j := 0; j < ncols; j++ {
				row[j] = cell()
			}
			imp := floats[rng.Intn(len(floats))]
			row[ncols] = imp
			rel.Append(row...)
			c.Impacts = append(c.Impacts, imp)
		}
		for j := 0; j < ncols; j++ {
			c.MatchIdx = append(c.MatchIdx, j)
		}
		return c
	}
	t1, t2 := canon(), canon()
	side := func() (core.Side, int, bool) {
		sd, c := core.Left, t1
		if rng.Intn(2) == 0 {
			sd, c = core.Right, t2
		}
		if c.Len() == 0 {
			return sd, 0, false
		}
		return sd, rng.Intn(c.Len()), true
	}
	e := &core.Explanations{}
	for i := rng.Intn(4); i > 0; i-- {
		if sd, tu, ok := side(); ok {
			e.Prov = append(e.Prov, core.ProvExpl{Side: sd, Tuple: tu})
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		if sd, tu, ok := side(); ok {
			e.Val = append(e.Val, core.ValExpl{Side: sd, Tuple: tu, NewImpact: floats[rng.Intn(len(floats))]})
		}
	}
	if t1.Len() > 0 && t2.Len() > 0 {
		for i := rng.Intn(5); i > 0; i-- {
			e.Evidence = append(e.Evidence, core.Evidence{L: rng.Intn(t1.Len()), R: rng.Intn(t2.Len()), P: floats[rng.Intn(len(floats))]})
		}
	}
	result := func() relation.Value { return relation.ToValue(cell()) }
	res := &core.Result{
		Prov1: &query.Provenance{Result: result()}, Prov2: &query.Provenance{Result: result()},
		T1: t1, T2: t2, Expl: e,
	}
	res.Stats.TimedOut = rng.Intn(2) == 0
	var summary []string
	if rng.Intn(3) > 0 {
		summary = []string{}
		for i := rng.Intn(3); i > 0; i-- {
			summary = append(summary, "[Q1] "+strs[rng.Intn(len(strs))]+" (1 tuples, 0 false positives)")
		}
	}
	return res, summary
}

// FuzzAppendJSON checks appendResultJSON against json.Marshal(ConvertResult)
// on random results: the fuzzer supplies one string cell, one float (NaN
// and ±Inf included, for error parity) and the shape's seed.
func FuzzAppendJSON(f *testing.F) {
	f.Add("plain", 0.5, int64(1))
	f.Add(`"quoted" <b>&amp;</b>`, math.Copysign(0, -1), int64(2))
	f.Add("\x01\u2028\xff", 1e-7, int64(3))
	f.Add("x", math.NaN(), int64(4))
	f.Add("y", math.Inf(-1), int64(5))
	f.Add(strings.Repeat("é", 40), 1e21, int64(6))
	f.Fuzz(func(t *testing.T, s string, fl float64, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			res, summary := fuzzResult(rng, s, fl)
			checkAppendJSON(t, "fuzz", res, summary)
		}
	})
}

// TestAppendJSONRandomResults runs the fuzz target's generator over fixed
// seeds, so go test covers it without -fuzz.
func TestAppendJSONRandomResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		res, summary := fuzzResult(rng, fuzzStrings[i%len(fuzzStrings)], fuzzFloats[i%len(fuzzFloats)])
		checkAppendJSON(t, "random", res, summary)
	}
}

// deltaShapeResult solves serve-delta's query pair once: a scenario of the
// given size (40000 rows in serve-delta), MinSim 0.5, MinProb 0.02,
// BatchSize 100, two workers.
func deltaShapeResult(tb testing.TB, rows int) *core.Result {
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: rows, Vocab: rows / 10, WordsPerKey: 3,
		Disagree: 0.01, Noise: 0.05, NoiseKind: "typo", Skew: 1.5, Seed: 1,
	})
	s1, err := core.BuildSide(sc.Q1, sc.DB1, sc.Mattr.LeftAttrs(), "Q1")
	if err != nil {
		tb.Fatal(err)
	}
	s2, err := core.BuildSide(sc.Q2, sc.DB2, sc.Mattr.RightAttrs(), "Q2")
	if err != nil {
		tb.Fatal(err)
	}
	popt := linkage.DefaultPairOptions()
	popt.MinSim = 0.5
	pp, err := core.BuildPairPrefix(s1, s2, sc.Mattr, popt, 2)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.ExplainPrefixContext(context.Background(), pp, nil, 0.02,
		CoreParams(&Options{BatchSize: 100, Workers: 2}), nil)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Stats.TimedOut {
		tb.Fatal("solver budget expired")
	}
	return res
}

// BenchmarkAppendResultJSON renders serve-delta's response body (about
// 40k evidence pairs, 700 explanations and 700 summary lines) with the
// appender and with the ConvertResult + json.Marshal path it replaced. The
// summary lines are computed once in setup, so both sub-benchmarks time
// rendering only; the first iteration checks the bodies are identical.
func BenchmarkAppendResultJSON(b *testing.B) {
	res := deltaShapeResult(b, 40000)
	summary := summarizeResult(res)
	want, err := oracleJSON(res, summary)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := appendResultJSON(nil, res, summary)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && !bytes.Equal(body, want) {
				b.Fatal("appended body differs from json.Marshal(ConvertResult)")
			}
		}
		b.ReportMetric(float64(len(want)), "body_bytes")
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleJSON(res, summary); err != nil {
				b.Fatal(err)
			}
		}
	})
}
