// Command e3bench is explain3d's benchmark: four workloads that together
// exercise every layer of the explain pipeline, end-to-end metrics a user
// of the system would see, and per-layer metrics from a separate traced
// run. BENCHMARK.json at the repository root declares the metrics, their
// units, directions and regression bounds; this package emits exactly
// those, and its tests check the two agree.
//
// It is a module of its own (go.mod here, the repository replaced in from
// ../..): the benchmark builds from its own directory with its own build
// file, and the module it measures does not depend on it. So `go test ./...`
// at the root does not run its tests, and `go vet -all ./...` at the root
// does not vet it; run both from this directory. Run the benchmark from the
// repository root through run.sh, which builds into .bench_build/:
//
//	bash cmd/e3bench/run.sh --workload oneshot-milp --seed 1 --seconds 20 --trace 0
//	bash cmd/e3bench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 1 -out runs.json
//	bash cmd/e3bench/run.sh -compare parent.json change.json -claim oneshot-stage1:explain_p50_ms
//	(cd cmd/e3bench && go vet -all ./... && go test ./...)
//
// Every run generates its inputs from -seed, measures for -seconds, checks
// every answer, and prints one JSON object as its last line of output:
// {"correct", "attempted", "failed", "metrics"}. -trace 0 prints the
// end-to-end metrics, -trace 1 the per-layer ones. -out appends the result
// with its workload and seed to a file, one record per line; -compare reads
// two such files (parent and change, ten seeds each) and prints, per
// workload and metric, each side's median and quartiles and a verdict:
// better or worse when the medians differ by more than the metric's bound,
// unchanged within it, unresolved when the parent's own interquartile
// spread is wider than the bound. -claim workload:metric judges a claimed
// gain: the change must win at least 9 of 10 seed-paired runs and the
// medians must differ by more than the parent's interquartile range.
// -compare exits 1 when a metric got worse or the claim is not met.
//
// # Workloads
//
// All load comes from this one process. explaind runs in-process, and
// requests go through its whole HTTP handler with httptest requests and
// recorders, not a loopback socket: the kernel's network stack is not
// explaind's cost, and on a shared machine it added run-to-run noise of its
// own to microsecond cache hits. Every call and request passes Workers: 2.
// Loops are closed: a client sends its next request when the previous one
// answered.
//
//   - oneshot-milp: Fig 7c's 20k-tuple point. IMDb with 10000 movies in
//     one year, template Q5 (total gross), MinSharedTokens 2, BatchSize
//     1000, with the Section 5.1.2 calibrator fitted during set-up. One
//     client; each operation parses the queries, runs core.ExplainContext,
//     ConvertResult with summaries and json.Marshal. Why: the MILP does
//     most of the work here (about 61% of an operation).
//   - oneshot-stage1: a 20000-row scenario with a dense vocabulary (rows
//     per filler word 50), MinSim 0.6, BatchSize 100, no calibrator; the
//     same operation. Why: the Stage-1 index scan takes about 76% of the
//     operation and the MILP little — the paper's "Stage 1 dominates" case.
//   - serve-mix: explaind with default options (a 128-entry result cache)
//     over the default IMDb data (3000 movies released 1970–2003). The
//     request universe is Q1–Q9 for every year, 306 query pairs, with
//     BatchSize 20, MinSharedTokens 2, MinSim 0.5; Q10 is left out because
//     without a calibrator (requests cannot carry one) it exhausts the
//     solver budget. Pair popularity is Zipf(1.1) over a permutation of the
//     pairs the seed chooses; one request in four sends a whitespace or
//     keyword-case variant of the SQL. Two clients share a fixed sequence of
//     60000 requests, client c sending requests c, c+2, …. The run is a
//     series of episodes: each starts a fresh explaind on the resident data
//     and sends the whole sequence, and each metric is the median over
//     episodes. Why: every episode is a cold start followed by churn. Each
//     pair's first request misses for real — provenance extraction (the
//     joins of Q1 and Q2), the Stage-1 build and, for Q5–Q9, MILP solves —
//     and the two clients meet on the same cold pair often enough for
//     single-flight joins. Then the working set, larger than the result
//     cache, keeps evicting, and re-misses go through the cached Stage-1
//     prefixes and the solution cache. The episodes are what make misses
//     reach the solver: the solution cache keeps every solved block, so on
//     a server that stays up only a pair's first request ever solves.
//     BatchSize 20 keeps every cold miss
//     under about 50 ms: with 100, single years of Q5–Q9 took seconds and
//     some exhausted the solver budget, and which years did so changed with
//     the seed.
//   - serve-delta: the incremental-maintenance scenario (40000 rows, typo
//     noise, value skew 1.5, BatchSize 100), its cold solve done during
//     set-up, with MinSim 0.5: a typo leaves a true pair 3 of 5 key tokens,
//     which the 0.9 of the older delta benchmark drops, scoring expl_f1
//     near 0.17 with a spread across seeds wider than any useful bound.
//     Each cycle posts a clustered 1% update batch (generated from the seed
//     and the cycle number) that also restores the previous batch's rows,
//     asks the fresh explanation once and then three more times. One
//     client. Why: writes beside reads over the same layers — copy-on-write
//     apply, the changed side's rebuild, prefix advance with dirty-row
//     rescans, and a partial re-solve through the solution cache; the
//     working set is one pair, so it fits every cache.
//
// # End-to-end metrics
//
// Every workload emits every end-to-end metric; each is defined so it
// means something on each.
//
//	setup_s          s      median of three set-ups: generate and load the data, fit
//	                        the calibrator, register, and the warm-up op, the cold
//	                        solve, or serve-mix's one-shot reference answers for all
//	                        306 pairs
//	explain_p50_ms   ms     median latency of one explain (a one-shot call or one
//	                        HTTP /explain request)
//	explain_per_s    1/s    explains completed per second (serve-mix: one episode's
//	                        requests over its wall time; serve-delta: per second of
//	                        request time, so the client's batch generation is not counted)
//	miss_p50_ms      ms     median latency of explains the result cache did not answer,
//	                        misses and single-flight joins (one-shot: every explain;
//	                        serve-delta: the first explain after each delta)
//	heap_mib         MiB    live heap after a forced GC at the end of the timed loop
//	                        (serve-mix: with the last episode's server resident)
//	expl_f1          ratio  explanation F1 against gold from the entity ids
//	evidence_f1      ratio  evidence-mapping F1 against the same gold
//
// Quality is scored on answers the run checked: oneshot-milp averages its
// dataset and four more generated from the seed, serve-mix averages its
// reference answers for all 306 pairs, serve-delta scores the original data.
//
// Failures are not a metric: an error, a non-200 answer, a TimedOut answer
// or an answer that differs from its reference counts in "failed", makes
// "correct" false and the exit status 1. The references: one-shot
// operations must repeat the warm-up's bytes, and the traced composition
// must match core.ExplainContext byte for byte; every serve-mix answer must
// equal its pair's reference, a one-shot recompute made during set-up and
// checked not to be TimedOut, byte for byte (the timed loop only compares
// bytes); every serve-delta repeat must be a hit equal to the fresh
// answer, the cold answer must equal a one-shot run on the original data,
// and the last answer one on the data after every batch.
//
// explain_p90_ms is not emitted: a one-shot run completes 20 to 55
// explains, too few for ten samples beyond the 90th percentile, and every
// workload must emit every end-to-end metric. fail_ratio is not a metric
// either: it would read 0, and the result's "failed" carries it.
// delta_p50_ms is the per-layer serve.delta_ms, since only serve-delta
// writes; the fresh-explain latency after a delta is serve-delta's
// miss_p50_ms.
//
// # Per-layer metrics
//
// A -trace 1 run times each layer from the outside, bracketing each call
// into a layer's public function with a span (trace.go). One-shot
// workloads alternate the untraced operation with the traced composition
// (compose.go): sqlparse.Parse, query.Extract and core.Canonicalize per
// side (concurrently, as core.BuildStage1 does), core.BuildPairIndex,
// core.BuildPairPrefixFrom, core.Stage1.Instance, core.SolveInstanceCached,
// explain3d.ConvertResult and json.Marshal. serve-mix replays up to 32 of
// the pairs that missed, chosen by the seed, through the calls explaind
// makes on a cold miss; serve-delta replays every cycle on a mirror:
// relation.Database.ApplyDelta, the changed side, core.PairPrefix.Advance
// and the solve through its own solution cache. graph.SmartPartition and
// experiments.SummarizeSide run inside the solve and ConvertResult, so a
// duplicate call on the same input times them after the operation, and
// their time is taken out of their parent's self time. Each time metric
// is the median over operations of a layer's self time; counts come from
// core.Stats and serve.Metrics. Layers a workload never reaches read 0.
//
//	layer metric                              should move            on (little or none on)
//	linkage.index_scan_ms, index_build_ms,    explain_p50_ms,        oneshot-stage1 (serve-mix hits,
//	linkage.candidates, kept_ratio            explain_per_s          serve-delta)
//	core.solve_ms, milp.vars, rows, nodes,    explain_p50_ms,        oneshot-milp, serve-mix misses
//	iters, refactors, dense/sparse_blocks     miss_p50_ms            (oneshot-stage1)
//	graph.partition_ms, partitions,           explain_p50_ms         oneshot-milp (about 1%: a control)
//	max_part_tuples
//	sqlparse.parse_ms, query.extract_ms,      miss_p50_ms            serve-mix (one-shot workloads)
//	query.prov_rows, core.canon_ms,
//	core.instance_ms
//	summarize.summarize_ms,                   miss_p50_ms,           serve-delta, oneshot-milp
//	explain3d.convert_ms, marshal_ms          explain_p50_ms
//	serve.hit_ms, hit_ratio, evictions,       explain_per_s,         serve-mix (one-shot workloads)
//	flight_joins, side/index/prefix_builds,   explain_p50_ms,
//	solution_hit_ratio                        miss_p50_ms, heap_mib
//	relation.apply_ms, serve.delta_ms         explain_per_s          serve-delta (all others)
//	core.prefix_advance_ms,                   miss_p50_ms            serve-delta (all others)
//	serve.prefix_advances, dirty_partitions
//	go.allocs_per_op, go.bytes_per_op,        (harness health)       all
//	trace.coverage, trace.overhead
//
// trace.coverage is the share of a traced operation's wall time inside some
// span (the union, since the two sides' spans overlap). trace.overhead is
// the traced operation's wall time over the untraced one it reproduces,
// minus one: for one-shot workloads the core.ExplainContext call just
// before it, for serve-mix the pair's one-shot reference recompute, for
// serve-delta the cycle's delta plus fresh-explain requests; serve-delta's
// includes request decoding the replay does not pay. serve.* ratios are per
// request of the timed loop, summed over serve-mix's episodes
// (serve.prefix_advances and serve.dirty_partitions per delta), so they do
// not grow with run length.
//
// # Bounds
//
// On the shared 2-core machine the benchmark was built on, ten runs of one
// workload with ten seeds spread (interquartile range over median) 2–9% on
// latency and throughput in a quiet hour, and up to 16% on the one-shot and
// 21% on the serve workloads in a noisy one, whose requests take
// microseconds to milliseconds. It is the machine drifting over seconds to
// minutes: all of a run's time metrics move together, one seed run
// repeatedly spreads as much, serve-mix's episodes within one run differ by
// 10%, and two passes of ten runs an hour apart had medians 7–17% apart.
// The time metrics therefore carry a 25% bound, setup_s too. heap_mib
// spreads under 4% (bound 10%); quality is deterministic per seed and
// spreads under 2.7% across seeds for expl_f1 (bound 10%) and 0.3% for
// evidence_f1 (bound 2%).
//
// # Seeds and measured sizes
//
// The default seed is 1. The holdout seed, for confirming a claimed gain
// on inputs not used while the change was written, is 1000003. With seed 1
// on that machine, traced, per operation:
//
//   - oneshot-milp: about 360–420 ms. 20000 provenance rows, 191343
//     candidate pairs of which 4.7% survive calibration and the
//     probability floor, 21 partitions of at most 1000 tuples, 78092 MILP
//     variables, 14302 nodes and 81971 simplex iterations, all proven
//     optimal. The MILP dominates: solve 234 ms and partitioning 2 ms
//     (about 61%); Stage 1 is 106 ms (scan 89, canonicalization 9,
//     extraction 4, index 3; about 28%); summaries 36 ms; marshaling 3 ms.
//     About 50 operations a run.
//   - oneshot-stage1: about 800–850 ms. 39973 provenance rows, 19976
//     candidates all kept, 400 partitions, 20062 nodes. Stage 1 dominates:
//     the index scan is 635 ms (about 76%), the solve 150 ms and
//     partitioning 6 ms (about 19%), canonicalization 18 ms, summaries 8 ms,
//     marshaling 5 ms. About 22 operations a run.
//   - serve-mix: an episode takes about 3.5 s, 5 to 7 a run. 85% of
//     requests hit (about 16 µs each), 0.15 evictions and 0.001
//     single-flight joins (about 60 an episode) happen per request, and 98%
//     of the MILP sub-problems of misses are solution-cache hits: only the
//     306 first requests solve. Re-misses take 0.3–0.4 ms. The one-shot
//     references cost about 2.3 s together, 85% of it in Q5–Q9. A cold
//     miss of Q5–Q9 takes 5–45 ms, 85–95% of it in the solve; one of Q1–Q4
//     takes 1–8 ms, mostly provenance extraction (the joins of Q1 and Q2).
//     The per-layer medians over 32 replayed pairs mix the two kinds.
//   - serve-delta: a replayed cycle takes about 76 ms: solve 19 ms and
//     partitioning 7 ms over 9 dirty partitions per delta (about 34%),
//     summaries 14 ms, prefix advance 12 ms, canonicalization of the
//     changed side 11 ms, the copy-on-write apply 6 ms, marshaling 5 ms.
//     The delta request takes about 8 ms, the fresh explain after it
//     73–83 ms, a repeat 0.15–0.2 ms. About 170 cycles a run.
//
// trace.coverage reads 0.99 or more on every workload.
package main
