package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json -compare reads: each metric's
// direction and, for end-to-end metrics, its regression bound as a share
// of the parent's median.
type benchDef struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRecords reads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values returns the metric's value in each run, in seed order.
func values(runs []record, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// worse reports whether a is worse than b in the metric's direction.
func (d boundDef) worse(a, b float64) bool {
	if d.Better == "higher" {
		return a < b
	}
	return a > b
}

// verdict judges one metric: worse or better when the medians differ by
// more than the bound, unchanged within it, and unresolved when the
// parent's own spread is wider than the bound — unless every change run
// reads better than every parent run.
func (d boundDef) verdict(parent, change []float64) string {
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if d.Bound == 0 || pm == 0 {
		return "-"
	}
	rel := (cm - pm) / pm
	if d.Better == "higher" {
		rel = -rel
	}
	if (q3-q1)/pm > d.Bound {
		if allWorse(d, parent, change) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case rel > d.Bound:
		return "worse"
	case rel < -d.Bound:
		return "better"
	}
	return "unchanged"
}

// allWorse reports whether every parent run is worse than every change run.
func allWorse(d boundDef, parent, change []float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if !d.worse(p, c) {
				return false
			}
		}
	}
	return true
}

// groupRuns splits records by workload and trace mode, each sorted by seed.
func groupRuns(recs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range recs {
		k := r.Workload
		if r.Trace {
			k += " (traced)"
		}
		out[k] = append(out[k], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out
}

// runCompare prints, per workload and metric, each side's median and
// quartiles with a verdict, then judges a named claim if one is given. It
// fails when a metric got worse than its bound or the claim is not met.
func runCompare(w io.Writer, benchPath, parentPath, changePath, claim string) error {
	def, err := readBenchDef(benchPath)
	if err != nil {
		return err
	}
	parentRecs, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	changeRecs, err := readRecords(changePath)
	if err != nil {
		return err
	}
	parent, change := groupRuns(parentRecs), groupRuns(changeRecs)
	keys := make([]string, 0, len(parent))
	for k := range parent {
		if change[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no workload has runs in both files")
	}
	fmt.Fprintf(w, "%-24s %-26s %28s %28s %8s  %s\n", "workload", "metric", "parent p50 [q1, q3]", "change p50 [q1, q3]", "delta", "verdict")
	worse := 0
	for _, k := range keys {
		defs := def.EndToEnd
		if strings.HasSuffix(k, "(traced)") {
			defs = def.PerLayer
		}
		for _, d := range defs {
			pv, cv := values(parent[k], d.Name), values(change[k], d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := d.verdict(pv, cv)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-24s %-26s %28s %28s %+7.1f%%  %s\n", k, d.Name,
				quartileText(pv), quartileText(cv), 100*ratio(median(cv)-median(pv), median(pv)), v)
		}
	}
	if claim != "" {
		if err := judgeClaim(w, def, parent, change, claim); err != nil {
			return err
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func quartileText(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// minClaimPairs is how many seed-paired runs a claimed gain needs.
const minClaimPairs = 10

// judgeClaim applies the rule for a claimed gain on workload:metric: runs
// pair up by seed, there must be at least minClaimPairs pairs, the change
// must win at least nine tenths of them (ties count for neither), and the
// medians must differ, in the better direction, by more than the parent's
// interquartile range.
func judgeClaim(w io.Writer, def *benchDef, parent, change map[string][]record, claim string) error {
	wl, name, ok := strings.Cut(claim, ":")
	if !ok {
		return fmt.Errorf("-claim wants workload:metric, got %q", claim)
	}
	var d *boundDef
	for i := range def.EndToEnd {
		if def.EndToEnd[i].Name == name {
			d = &def.EndToEnd[i]
		}
	}
	for i := range def.PerLayer {
		if def.PerLayer[i].Name == name {
			d = &def.PerLayer[i]
			wl += " (traced)"
		}
	}
	if d == nil {
		return fmt.Errorf("-claim: %q is not a metric of BENCHMARK.json", name)
	}
	pbySeed := map[int64][]float64{}
	for _, r := range parent[wl] {
		if v, ok := r.Metrics[name]; ok {
			pbySeed[r.Seed] = append(pbySeed[r.Seed], v.Value)
		}
	}
	pairs, wins := 0, 0
	for _, r := range change[wl] {
		v, ok := r.Metrics[name]
		ps := pbySeed[r.Seed]
		if !ok || len(ps) == 0 {
			continue
		}
		p := ps[0]
		pbySeed[r.Seed] = ps[1:]
		pairs++
		if d.worse(p, v.Value) {
			wins++
		}
	}
	if pairs == 0 {
		return fmt.Errorf("-claim %s: no runs pair up by seed", claim)
	}
	pv, cv := values(parent[wl], name), values(change[wl], name)
	gap := median(cv) - median(pv)
	if d.Better != "higher" {
		gap = -gap
	}
	q1, q3 := quartiles(pv)
	met := pairs >= minClaimPairs && 10*wins >= 9*pairs && gap > q3-q1
	verdict := "met"
	switch {
	case pairs < minClaimPairs:
		verdict = fmt.Sprintf("not met, fewer than %d pairs", minClaimPairs)
	case !met:
		verdict = "not met"
	}
	fmt.Fprintf(w, "claim %s: %s (change wins %d of %d pairs; median gap %.4g vs parent IQR %.4g)\n",
		claim, verdict, wins, pairs, gap, q3-q1)
	if !met {
		return fmt.Errorf("claim %s not met", claim)
	}
	return nil
}
