package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON pins the metrics the program emits to
// the ones BENCHMARK.json declares, name for name and unit for unit.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	def, err := readBenchDef(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []boundDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, want[i].name, want[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, def.EndToEnd)
	check("per_layer", perLayer, def.PerLayer)
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// scale: every declared metric is emitted, every built-in check passes,
// nothing fails, and the traced composition covers the operation.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 7, seconds: 0.05, trace: trace, scale: 0.01}
			rec, err := runWorkload(name, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d", name, trace, rec.Correct, rec.Failed, rec.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if mv, ok := rec.Metrics[d.name]; !ok || mv.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", name, trace, d.name, d.unit)
				}
			}
			if trace {
				if c := rec.Metrics["trace.coverage"].Value; c < 0.95 {
					t.Errorf("%s: trace.coverage %.3f, want >= 0.95", name, c)
				}
			} else if v := rec.Metrics["explain_p50_ms"].Value; v <= 0 {
				t.Errorf("%s: explain_p50_ms %v, want > 0", name, v)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCompare feeds -compare a parent and a change that is slower on one
// metric beyond its bound and faster on another by a claimed margin.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, bench, `{"end_to_end": [
		{"name": "explain_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "explain_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`)
	var parent, change strings.Builder
	for s := 1; s <= 10; s++ {
		jitter := float64(s%3) * 0.1
		parent.WriteString(recordLine(t, int64(s), 100+jitter, 10+jitter))
		change.WriteString(recordLine(t, int64(s), 130+jitter, 13+jitter))
	}
	pf, cf := filepath.Join(dir, "parent.json"), filepath.Join(dir, "change.json")
	writeFile(t, pf, parent.String())
	writeFile(t, cf, change.String())

	var out strings.Builder
	err := runCompare(&out, bench, pf, cf, "oneshot-milp:explain_per_s")
	if err == nil || !strings.Contains(err.Error(), "1 metric(s) worse") {
		t.Fatalf("runCompare error = %v, want one worse metric\n%s", err, out.String())
	}
	for _, want := range []string{"explain_p50_ms", "worse", "explain_per_s", "better", "claim oneshot-milp:explain_per_s: met"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}

	// The same gain on nine seed pairs is too few to back a claim.
	parent.Reset()
	change.Reset()
	for s := 1; s <= 9; s++ {
		parent.WriteString(recordLine(t, int64(s), 100, 10))
		change.WriteString(recordLine(t, int64(s), 100, 13))
	}
	writeFile(t, pf, parent.String())
	writeFile(t, cf, change.String())
	out.Reset()
	err = runCompare(&out, bench, pf, cf, "oneshot-milp:explain_per_s")
	if err == nil || !strings.Contains(out.String(), "not met, fewer than 10 pairs") {
		t.Fatalf("runCompare on 9 pairs: error = %v, want the claim not met\n%s", err, out.String())
	}
}

func recordLine(t *testing.T, seed int64, p50, perS float64) string {
	t.Helper()
	r := &record{Workload: "oneshot-milp", Seed: seed}
	r.Correct, r.Attempted = true, 1
	r.Metrics = map[string]metricValue{
		"explain_p50_ms": {Value: p50, Unit: "ms"},
		"explain_per_s":  {Value: perS, Unit: "1/s"},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := appendRecord(path, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
