package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the parallelism every layer gets: the Workers option of every
// one-shot call and every explaind request. Two matches the two client
// goroutines serve-mix runs and the 2-core machines the sizes were tuned on.
const workers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 3

// metricDef is one metric the benchmark emits: its name and unit, exactly
// as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run prints with -trace 0. Every workload emits
// every one, so each must mean something on each workload (see doc.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"explain_p50_ms", "ms"},
	{"explain_per_s", "1/s"},
	{"miss_p50_ms", "ms"},
	{"heap_mib", "MiB"},
	{"expl_f1", "ratio"},
	{"evidence_f1", "ratio"},
}

// perLayer are the metrics a run prints with -trace 1. A layer a workload
// never reaches reports 0.
var perLayer = []metricDef{
	{"sqlparse.parse_ms", "ms"},
	{"query.extract_ms", "ms"},
	{"query.prov_rows", "count"},
	{"core.canon_ms", "ms"},
	{"linkage.index_build_ms", "ms"},
	{"linkage.index_scan_ms", "ms"},
	{"linkage.candidates", "count"},
	{"linkage.kept_ratio", "ratio"},
	{"core.instance_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"graph.partition_ms", "ms"},
	{"graph.partitions", "count"},
	{"graph.max_part_tuples", "count"},
	{"milp.vars", "count"},
	{"milp.rows", "count"},
	{"milp.nodes", "count"},
	{"milp.iters", "count"},
	{"milp.refactors", "count"},
	{"milp.dense_blocks", "count"},
	{"milp.sparse_blocks", "count"},
	{"summarize.summarize_ms", "ms"},
	{"explain3d.convert_ms", "ms"},
	{"explain3d.marshal_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.evictions", "1/req"},
	{"serve.flight_joins", "1/req"},
	{"serve.side_builds", "1/req"},
	{"serve.index_builds", "1/req"},
	{"serve.prefix_builds", "1/req"},
	{"serve.solution_hit_ratio", "ratio"},
	{"serve.delta_ms", "ms"},
	{"relation.apply_ms", "ms"},
	{"core.prefix_advance_ms", "ms"},
	{"serve.prefix_advances", "1/delta"},
	{"serve.dirty_partitions", "1/delta"},
	{"go.allocs_per_op", "1/op"},
	{"go.bytes_per_op", "B/op"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// config is one run's settings, taken from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks every workload's data; tests run at a tiny scale.
	scale float64
}

// runFunc runs one workload and returns its metric values by name.
type runFunc func(ctx context.Context, cfg config, out *outcome) (map[string]float64, error)

var workloads = map[string]runFunc{
	"oneshot-milp":   runOneshotMILP,
	"oneshot-stage1": runOneshotStage1,
	"serve-mix":      runServeMix,
	"serve-delta":    runServeDelta,
}

// outcome counts the operations a run attempted and those that failed; a
// failed operation is an error, a non-200 answer, a TimedOut answer or an
// answer that differs from its reference.
type outcome struct {
	attempted, failed int
	// firstFailure describes the first failed operation, for stderr.
	firstFailure string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.firstFailure == "" {
		o.firstFailure = fmt.Sprintf(format, args...)
	}
}

// add counts another outcome's operations into o.
func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstFailure == "" {
		o.firstFailure = p.firstFailure
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: a result plus what produced it, the
// input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), "|")+"|all")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 15, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1 runs the traced composition and prints the per-layer metrics")
		scale    = flag.Float64("scale", 1, "data-size multiplier (tests use a tiny scale)")
		outPath  = flag.String("out", "", "append one JSON record per run to this file")
		compare  = flag.Bool("compare", false, "compare two -out files: e3bench -compare parent.json change.json")
		bench    = flag.String("bench", "BENCHMARK.json", "benchmark definition holding the regression bounds (for -compare)")
		claim    = flag.String("claim", "", "workload:metric claimed to improve (for -compare)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e3bench: -compare needs two files: parent.json change.json")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, *bench, flag.Arg(0), flag.Arg(1), *claim); err != nil {
			fmt.Fprintf(os.Stderr, "e3bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "e3bench: unknown workload %q (valid: %s, all)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "e3bench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(os.Stderr, "e3bench: -seconds and -scale must be positive")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale}
	ok := true
	for _, name := range names {
		rec, err := runWorkload(name, cfg, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e3bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e3bench: %v\n", err)
			os.Exit(1)
		}
		if *outPath != "" {
			if err := appendRecord(*outPath, rec); err != nil {
				fmt.Fprintf(os.Stderr, "e3bench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println(string(line))
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs one workload and assembles its record: every metric of
// the selected set, each with its unit, and the correctness verdict. A
// human-readable metric table goes to log.
//
//lint:ctxroot the benchmark run owns the context its solves derive from
func runWorkload(name string, cfg config, log io.Writer) (*record, error) {
	var out outcome
	values, err := workloads[name](context.Background(), cfg, &out)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rec := &record{Workload: name, Seed: cfg.seed, Trace: cfg.trace}
	rec.Attempted, rec.Failed = out.attempted, out.failed
	rec.Correct = out.failed == 0 && out.attempted > 0
	rec.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "%-16s %-26s %14.4f %s\n", name, d.name, v, d.unit)
	}
	if out.firstFailure != "" {
		fmt.Fprintf(log, "%s: %d of %d operations failed; first: %s\n", name, out.failed, out.attempted, out.firstFailure)
	}
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// timedSetup runs build setupReps times and returns the last state and the
// median set-up time in seconds. Earlier states are released before the
// next build so at most two are ever live.
func timedSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var state T
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(state)
			runtime.GC()
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return state, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		state = s
	}
	return state, median(secs), nil
}

// heapMiB forces a collection and reports the live heap, so everything the
// run keeps resident — data, indexes, caches — counts.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMeter measures allocations between start and stop.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.Mallocs, ms.TotalAlloc}
}

// stop returns the allocations and bytes allocated since start.
func (a allocMeter) stop() (allocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.mallocs), float64(ms.TotalAlloc - a.bytes)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scaled multiplies a size by the run's scale, with a floor that keeps tiny
// test runs meaningful.
func scaled(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	return max(v, floor)
}

// zeroLayers returns every per-layer metric at 0, for workloads to fill in.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
