// Command experiments regenerates every table and figure of the paper's
// evaluation section (Section 5):
//
//	fig4      dataset statistics (academic pairs + IMDb templates)
//	fig6      accuracy and time on the academic pairs (6a–6f)
//	fig7      accuracy on the IMDb views (7a, 7b) and time vs tuples (7c)
//	fig8a     synthetic solve time vs number of tuples
//	fig8b     synthetic solve time vs difference ratio
//	fig8c     synthetic solve time vs vocabulary size
//	all       everything above
//
// The -scale flag shrinks or grows the sweeps (1 = paper-shaped defaults
// sized for a laptop; the absolute paper scales need hours). Performance
// measurement of the system itself lives in cmd/e3bench.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/experiments"
)

var (
	exp        = flag.String("exp", "all", "experiment: "+strings.Join(validExperiments, "|"))
	scale      = flag.Float64("scale", 1, "workload scale multiplier")
	budget     = flag.Duration("budget", 120*time.Second, "per-solve budget before DNF")
	workers    = flag.Int("workers", 0, "parallel solve workers (0 = GOMAXPROCS, 1 = sequential)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file on exit")
)

// validExperiments is the closed set -exp accepts; anything else is a
// spelling mistake the run must refuse instead of silently doing nothing.
var validExperiments = []string{
	"fig4", "fig6", "fig7", "fig8a", "fig8b", "fig8c", "all",
}

func main() {
	flag.Parse()
	if !slices.Contains(validExperiments, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (valid: %s)\n",
			*exp, strings.Join(validExperiments, ", "))
		os.Exit(2)
	}
	// Profiling the experiment driver is the supported way to see where
	// Stage 1 / Stage 2 time goes on paper-shaped workloads:
	//
	//	go run ./cmd/experiments -exp fig7 -scale 0.5 -cpuprofile cpu.out -memprofile mem.out
	//	go tool pprof -top cpu.out
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing heap profile: %v\n", err)
			}
		}()
	}
	params := core.DefaultParams()
	params.Workers = *workers
	run := func(name string, f func(core.Params) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(params); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("fig4", fig4)
	run("fig6", fig6)
	run("fig7", fig7)
	run("fig8a", fig8a)
	run("fig8b", fig8b)
	run("fig8c", fig8c)
}

func fig4(params core.Params) error {
	fmt.Println("Figure 4: dataset statistics")
	for _, spec := range []datagen.AcademicSpec{datagen.UMassLike(), datagen.OSULike()} {
		rep, err := experiments.RunAcademic(spec, params)
		if err != nil {
			return err
		}
		experiments.WriteStats(os.Stdout, rep.Stats)
	}
	opt := imdbOptions()
	rep, err := experiments.RunIMDb(opt, params, []string{experiments.MethodExplain3D})
	if err != nil {
		return err
	}
	fmt.Printf("IMDb templates (avg over %d instantiations, %d movies):\n", opt.Instantiations, opt.Spec.Movies)
	experiments.WriteIMDbStats(os.Stdout, rep.Stats)
	return nil
}

func fig6(params core.Params) error {
	fmt.Println("Figure 6: academic pairs, all methods")
	for _, spec := range []datagen.AcademicSpec{datagen.UMassLike(), datagen.OSULike()} {
		rep, err := experiments.RunAcademic(spec, params)
		if err != nil {
			return err
		}
		experiments.WriteMethodTable(os.Stdout, "NCES vs "+spec.Name, rep.Results)
	}
	return nil
}

func imdbOptions() experiments.IMDbOptions {
	return experiments.IMDbOptions{
		Spec:           datagen.IMDbSpec{Movies: int(1500 * *scale), Seed: 23},
		Instantiations: int(2 * *scale),
		BatchSize:      1000,
		Seed:           5,
	}
}

func fig7(params core.Params) error {
	fmt.Println("Figure 7a/7b: IMDb average accuracy")
	opt := imdbOptions()
	methods := append(experiments.AllMethods(), experiments.MethodNoOpt)
	rep, err := experiments.RunIMDb(opt, params, methods)
	if err != nil {
		return err
	}
	experiments.WriteMethodTable(os.Stdout, fmt.Sprintf("IMDb (avg over 10 templates × %d instantiations)", opt.Instantiations), rep.Averages)

	fmt.Println("\nFigure 7c: execution time vs provenance size")
	sizes := scaledInts([]int{5000, 10000, 15000, 20000}, *scale)
	points, err := experiments.IMDbTimeSweep(sizes,
		[]string{experiments.MethodExplain3D, experiments.MethodNoOpt, experiments.MethodGreedy,
			experiments.MethodThreshold, experiments.MethodRSwoosh, experiments.MethodExact},
		params, 1000, *budget)
	if err != nil {
		return err
	}
	experiments.WriteTimePoints(os.Stdout, "total execution time (s) by tuple count", points)
	return nil
}

func fig8a(params core.Params) error {
	fmt.Println("Figure 8a: solve time vs number of tuples (d=0.2, v=1K)")
	sw := experiments.SyntheticSweep{
		Base:       datagen.SyntheticSpec{D: 0.2, V: 1000, Seed: 41},
		Ns:         scaledInts([]int{100, 300, 1000, 3000, 10000}, *scale),
		BatchSizes: []int{0, 100, 1000},
		Budget:     *budget,
		NoOptMaxN:  int(10000 * *scale),
	}
	pts, err := sw.Run(params)
	if err != nil {
		return err
	}
	experiments.WriteTimePoints(os.Stdout, "solve time (s) by n",
		experiments.TimePointsOf(pts, func(p experiments.SyntheticPoint) int { return p.N }))
	reportAccuracy(pts)
	return nil
}

func fig8b(params core.Params) error {
	fmt.Println("Figure 8b: solve time vs difference ratio (n=1K, v=1K)")
	sw := experiments.SyntheticSweep{
		Base:       datagen.SyntheticSpec{N: int(1000 * *scale), V: 1000, Seed: 43},
		Ds:         []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		BatchSizes: []int{0, 100, 1000},
		Budget:     *budget,
	}
	pts, err := sw.Run(params)
	if err != nil {
		return err
	}
	experiments.WriteTimePoints(os.Stdout, "solve time (s) by d×100",
		experiments.TimePointsOf(pts, func(p experiments.SyntheticPoint) int { return int(p.D * 100) }))
	reportAccuracy(pts)
	return nil
}

func fig8c(params core.Params) error {
	fmt.Println("Figure 8c: solve time vs vocabulary size (n=1K, d=0.2)")
	sw := experiments.SyntheticSweep{
		Base:       datagen.SyntheticSpec{N: int(1000 * *scale), D: 0.2, Seed: 47},
		Vs:         []int{100, 300, 1000, 3000, 10000},
		BatchSizes: []int{0, 100, 1000},
		Budget:     *budget,
	}
	pts, err := sw.Run(params)
	if err != nil {
		return err
	}
	experiments.WriteTimePoints(os.Stdout, "solve time (s) by v",
		experiments.TimePointsOf(pts, func(p experiments.SyntheticPoint) int { return p.V }))
	reportAccuracy(pts)
	return nil
}

func reportAccuracy(pts []experiments.SyntheticPoint) {
	worstE, worstV := 1.0, 1.0
	for _, p := range pts {
		if p.DNF {
			continue
		}
		if p.ExplF1 < worstE {
			worstE = p.ExplF1
		}
		if p.EvidF1 < worstV {
			worstV = p.EvidF1
		}
	}
	fmt.Printf("  (worst-case accuracy across points: expl F1 %.3f, evidence F1 %.3f)\n", worstE, worstV)
}

func scaledInts(xs []int, s float64) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		v := int(float64(x) * s)
		if v >= 10 {
			out = append(out, v)
		}
	}
	return out
}
