package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/serve"
)

// serveMixRequest is the request shape every serve-mix pair uses. Requests
// cannot carry a calibrator, so the aggregate templates Q5–Q9 solve blocks
// of loosely matched tuples; BatchSize 20 bounds each block, and a cold miss
// of theirs costs 5–45 ms on every seed. With BatchSize 100 some years took
// seconds and some exhausted the solver budget.
var serveMixRequest = serve.Request{
	Dataset: "imdb", Workers: workers,
	BatchSize: 20, MinSharedTokens: 2, MinSim: 0.5,
}

const (
	// mixClients is how many closed-loop clients share the request sequence.
	mixClients = 2
	// mixRequests is the length of the request sequence one episode sends.
	mixRequests = 60000
	// mixZipf is the exponent of pair popularity.
	mixZipf = 1.1
)

// mixPair is one (template, parameter) query pair of the universe.
type mixPair struct {
	tpl   datagen.Template
	param string
	// payloads are the canonical request and its whitespace and
	// keyword-case variants, which must share one cache entry.
	payloads [3][]byte
}

// mixUniverse is Q1–Q9 for every release year of the default IMDb data:
// 306 pairs, more than the 128-entry result cache holds. Q10 is left out:
// without a calibrator it exhausts the solver budget.
func mixUniverse() ([]*mixPair, error) {
	var out []*mixPair
	for _, tpl := range datagen.Templates()[:9] {
		for y := mixFirstYear; y <= mixLastYear; y++ {
			p := &mixPair{tpl: tpl, param: strconv.Itoa(y)}
			q1, q2 := tpl.SQL(p.param)
			for v, f := range []func(string) string{
				func(s string) string { return s },
				spaceVariant,
				caseVariant,
			} {
				rq := serveMixRequest
				rq.Q1, rq.Q2, rq.Matches = f(q1), f(q2), tpl.MattrText
				b, err := json.Marshal(rq)
				if err != nil {
					return nil, err
				}
				p.payloads[v] = b
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// The release years of the default IMDb data.
const mixFirstYear, mixLastYear = 1970, 2003

// spaceVariant reflows the SQL's whitespace.
func spaceVariant(sql string) string { return "  " + strings.Join(strings.Fields(sql), " \n\t ") + " " }

// caseVariant lower-cases the SQL keywords.
func caseVariant(sql string) string {
	return strings.NewReplacer("SELECT ", "select ", " FROM ", " from ", " WHERE ", " where ", " AND ", " and ").Replace(strings.Join(strings.Fields(sql), " "))
}

// mixReq is one request of the sequence: a pair and its payload variant.
type mixReq struct{ pair, variant int }

// mixSequence is the seeded request sequence: pair popularity is
// Zipf(mixZipf) over a permutation of the pairs the seed chooses, and one
// request in four sends a variant text.
func mixSequence(seed int64, pairs, n int) []mixReq {
	rng := rand.New(rand.NewSource(seed))
	byRank := rng.Perm(pairs)
	cdf := make([]float64, pairs)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -mixZipf)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	seq := make([]mixReq, n)
	for i := range seq {
		rank := min(sort.SearchFloat64s(cdf, rng.Float64()), pairs-1)
		seq[i].pair = byRank[rank]
		if rng.Intn(4) == 0 {
			seq[i].variant = 1 + rng.Intn(2)
		}
	}
	return seq
}

// mixRef is one pair's reference answer: a one-shot recompute.
type mixRef struct {
	body []byte
	// d is the recompute's latency, the untraced operation a traced replay
	// reproduces.
	d        time.Duration
	timedOut bool
	// res is kept only until quality is scored.
	res *core.Result
}

// mixState is serve-mix's resident state.
type mixState struct {
	im   *datagen.IMDb
	refs []mixRef
}

// mixClient is one closed-loop client's log of an episode.
type mixClient struct {
	outcome
	cl                *client
	all, misses, hits []float64
	// missed marks the pairs answered with a miss or flight disposition.
	missed []bool
}

// do sends one request and checks the answer against the pair's reference
// bytes, which set-up checked were not TimedOut.
func (c *mixClient) do(pairs []*mixPair, refs []mixRef, q mixReq) {
	r := c.cl.post("/explain", pairs[q.pair].payloads[q.variant])
	c.attempted++
	d := ms(r.d)
	c.all = append(c.all, d)
	switch r.cache {
	case "hit":
		c.hits = append(c.hits, d)
	case "miss", "flight":
		c.misses = append(c.misses, d)
		c.missed[q.pair] = true
	}
	pair := pairs[q.pair]
	switch {
	case r.status != http.StatusOK:
		c.fail("%s %s: status %d: %.200s", pair.tpl.Name, pair.param, r.status, r.body)
	case !bytes.Equal(r.body, refs[q.pair].body):
		c.fail("%s %s: answer differs from a one-shot recompute", pair.tpl.Name, pair.param)
	case r.cache != "hit" && r.cache != "miss" && r.cache != "flight":
		c.fail("%s %s: unknown cache disposition %q", pair.tpl.Name, pair.param, r.cache)
	}
}

// runMixEpisode sends the whole sequence to srv from mixClients
// goroutines, client c sending requests c, c+mixClients, … in order, and
// returns their logs and the episode's wall time.
func runMixEpisode(srv *server, pairs []*mixPair, refs []mixRef, seq []mixReq) ([]mixClient, time.Duration) {
	clients := make([]mixClient, mixClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		cl := &clients[c]
		cl.cl, cl.missed = srv.client(), make([]bool, len(pairs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(seq); i += mixClients {
				cl.do(pairs, refs, seq[i])
			}
		}()
	}
	wg.Wait()
	return clients, time.Since(start)
}

// runServeMix replays a Zipf request stream against a freshly started
// explaind, over and over: each episode is a cold start, so misses build
// Stage-1 prefixes and solve MILPs, then the working set — larger than the
// result cache — churns it. Each metric is the median over episodes.
func runServeMix(ctx context.Context, cfg config, out *outcome) (map[string]float64, error) {
	pairs, err := mixUniverse()
	if err != nil {
		return nil, err
	}
	build := func() (*mixState, error) {
		im, err := datagen.GenerateIMDb(datagen.IMDbSpec{Movies: scaled(3000, cfg.scale, 300), Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		st := &mixState{im: im, refs: make([]mixRef, len(pairs))}
		for p, pair := range pairs {
			start := time.Now()
			body, res, err := mixOneshot(ctx, im, pair)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", pair.tpl.Name, pair.param, err)
			}
			st.refs[p] = mixRef{body: body, d: time.Since(start), timedOut: res.Stats.TimedOut, res: res}
		}
		return st, nil
	}
	st, setupS, err := timedSetup(build, func(*mixState) {})
	if err != nil {
		return nil, err
	}
	var explF1, evidF1 []float64
	for p, pair := range pairs {
		ref := &st.refs[p]
		out.attempted++
		if ref.timedOut {
			out.fail("%s %s: solver budget expired (TimedOut)", pair.tpl.Name, pair.param)
		}
		e, v, err := scoreF1(ref.res, pair.tpl.EID1, pair.tpl.EID2)
		if err != nil {
			return nil, err
		}
		explF1, evidF1 = append(explF1, e), append(evidF1, v)
		ref.res = nil
	}

	seq := mixSequence(cfg.seed, len(pairs), scaled(mixRequests, cfg.scale, 1000))
	var p50s, missP50s, hitP50s, perS []float64
	var total serve.Metrics
	var allocs, bytesAlloc float64
	missed := make([]bool, len(pairs))
	var srv *server
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(perS) == 0 || time.Now().Before(deadline) {
		if srv != nil {
			srv.close()
		}
		if srv, err = startServer("imdb", st.im.DB1, st.im.DB2); err != nil {
			return nil, err
		}
		meter := startAllocs()
		clients, wall := runMixEpisode(srv, pairs, st.refs, seq)
		a, b := meter.stop()
		allocs, bytesAlloc = allocs+a, bytesAlloc+b
		total = addMetrics(total, srv.srv.Metrics(), 1)
		var all, misses, hits []float64
		for c := range clients {
			cl := &clients[c]
			out.add(cl.outcome)
			all, misses, hits = append(all, cl.all...), append(misses, cl.misses...), append(hits, cl.hits...)
			for p, m := range cl.missed {
				missed[p] = missed[p] || m
			}
		}
		p50s, missP50s, hitP50s = append(p50s, median(all)), append(missP50s, median(misses)), append(hitP50s, median(hits))
		perS = append(perS, float64(len(seq))/wall.Seconds())
	}
	requests := float64(len(seq) * len(perS))

	if cfg.trace {
		m := zeroLayers()
		serveRatios(m, total)
		m["serve.hit_ms"] = median(hitP50s)
		m["go.allocs_per_op"] = ratio(allocs, requests)
		m["go.bytes_per_op"] = ratio(bytesAlloc, requests)
		if err := replayMisses(ctx, cfg, st, pairs, missed, out, m); err != nil {
			return nil, err
		}
		return m, nil
	}
	return map[string]float64{
		"setup_s":        setupS,
		"explain_p50_ms": median(p50s),
		"miss_p50_ms":    median(missP50s),
		"explain_per_s":  median(perS),
		// The last episode's server and caches are still resident.
		"heap_mib":    heapMiB(),
		"expl_f1":     mean(explF1),
		"evidence_f1": mean(evidF1),
	}, nil
}

// mixOneshot recomputes one pair with the one-shot pipeline and the
// server's exact parameter resolution.
func mixOneshot(ctx context.Context, im *datagen.IMDb, pair *mixPair) ([]byte, *core.Result, error) {
	q1, q2 := pair.tpl.SQL(pair.param)
	p, err := parseAll(q1, q2, pair.tpl.MattrText)
	if err != nil {
		return nil, nil, err
	}
	popt := mixPairOptions()
	res, err := core.ExplainContext(ctx, core.Input{
		DB1: im.DB1, DB2: im.DB2, Q1: p.q1, Q2: p.q2, Mattr: p.mattr, PairOpts: &popt, Workers: workers,
	}, mixParams())
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(explain3d.ConvertResult(res, true))
	return body, res, err
}

func mixPairOptions() linkage.PairOptions {
	popt := linkage.DefaultPairOptions()
	popt.MinSharedTokens = serveMixRequest.MinSharedTokens
	popt.MinSim = serveMixRequest.MinSim
	return popt
}

func mixParams() core.Params {
	return explain3d.CoreParams(&explain3d.Options{BatchSize: serveMixRequest.BatchSize, Workers: workers})
}

// maxReplays bounds how many missed pairs a traced serve-mix run replays.
const maxReplays = 32

// replayMisses replays a seeded subset of the pairs that missed through the
// calls explaind makes on a cold miss — sides, index, prefix, solve
// through a solution cache, convert, marshal — and checks each replay
// against the pair's reference. Overhead compares a replay with the
// reference's one-shot recompute, which does the same work untraced.
func replayMisses(ctx context.Context, cfg config, st *mixState, pairs []*mixPair, missed []bool, out *outcome, m map[string]float64) error {
	var subset []int
	for p, ok := range missed {
		if ok {
			subset = append(subset, p)
		}
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
	if len(subset) > maxReplays {
		subset = subset[:maxReplays]
	}
	layers := layerSamples{}
	for _, p := range subset {
		pair := pairs[p]
		q1, q2 := pair.tpl.SQL(pair.param)
		tr := newOpTrace()
		pp, err := func() (*core.PairPrefix, error) {
			ps, err := traceParse(tr, q1, q2, pair.tpl.MattrText)
			if err != nil {
				return nil, err
			}
			s1, s2, err := traceSides(tr, ps, st.im.DB1, st.im.DB2)
			if err != nil {
				return nil, err
			}
			return tracePrefix(tr, s1, s2, ps.mattr, mixPairOptions())
		}()
		if err != nil {
			return fmt.Errorf("replay %s %s: %w", pair.tpl.Name, pair.param, err)
		}
		tx, err := finishTrace(ctx, tr, pp, nil, mixParams(), core.NewSolveCache(0))
		if err != nil {
			return fmt.Errorf("replay %s %s: %w", pair.tpl.Name, pair.param, err)
		}
		out.attempted++
		if !bytes.Equal(tx.body, st.refs[p].body) {
			out.fail("%s %s: replay differs from the served answer", pair.tpl.Name, pair.param)
			continue
		}
		layers.addTrace(tx.tr, st.refs[p].d)
		layers.addCounts(tx)
	}
	layers.into(m, len(layers["trace.coverage"]))
	return nil
}
