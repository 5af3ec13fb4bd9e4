package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"explain3d/internal/relation"
	"explain3d/internal/serve"
)

// server is an in-process explaind. Requests go through its full HTTP
// handler — routing, JSON decoding, canonicalization, caches, single-flight,
// encoding — recorded with httptest, without a loopback socket: the kernel's
// network stack is not explaind's cost, and on a shared machine it makes
// microsecond-scale cache hits several times noisier than the work itself.
type server struct {
	srv     *serve.Server
	handler http.Handler
}

func startServer(name string, db1, db2 *relation.Database) (*server, error) {
	srv := serve.New(serve.Options{})
	if err := srv.Register(name, db1, db2); err != nil {
		srv.Close()
		return nil, err
	}
	return &server{srv: srv, handler: srv.Handler()}, nil
}

// close cancels any solve still in flight.
func (s *server) close() { s.srv.Close() }

// addMetrics returns a + sign*b for the counters the benchmark reads.
func addMetrics(a, b serve.Metrics, sign int64) serve.Metrics {
	return serve.Metrics{
		Requests:        a.Requests + sign*b.Requests,
		CacheHits:       a.CacheHits + sign*b.CacheHits,
		Evictions:       a.Evictions + sign*b.Evictions,
		FlightJoins:     a.FlightJoins + sign*b.FlightJoins,
		SideBuilds:      a.SideBuilds + sign*b.SideBuilds,
		IndexBuilds:     a.IndexBuilds + sign*b.IndexBuilds,
		PrefixBuilds:    a.PrefixBuilds + sign*b.PrefixBuilds,
		PrefixAdvances:  a.PrefixAdvances + sign*b.PrefixAdvances,
		SolutionHits:    a.SolutionHits + sign*b.SolutionHits,
		SolutionMisses:  a.SolutionMisses + sign*b.SolutionMisses,
		DeltasApplied:   a.DeltasApplied + sign*b.DeltasApplied,
		DirtyPartitions: a.DirtyPartitions + sign*b.DirtyPartitions,
	}
}

// serveRatios writes into m the cache and build counters d accrued, per
// request.
func serveRatios(m map[string]float64, d serve.Metrics) {
	perReq := func(n int64) float64 { return ratio(float64(n), float64(d.Requests)) }
	m["serve.hit_ratio"] = perReq(d.CacheHits)
	m["serve.evictions"] = perReq(d.Evictions)
	m["serve.flight_joins"] = perReq(d.FlightJoins)
	m["serve.side_builds"] = perReq(d.SideBuilds)
	m["serve.index_builds"] = perReq(d.IndexBuilds)
	m["serve.prefix_builds"] = perReq(d.PrefixBuilds)
	m["serve.solution_hit_ratio"] = ratio(float64(d.SolutionHits), float64(d.SolutionHits+d.SolutionMisses))
}

// reply is one answered request. Its body is the client's buffer, valid
// until the client's next request; keep a copy to hold it longer.
type reply struct {
	status int
	body   []byte
	// cache is the X-Explaind-Cache disposition: hit, miss or flight.
	cache string
	d     time.Duration
}

// client sends requests one at a time, as one closed-loop user. Its
// recorder writes into one reused buffer: growing a fresh buffer to
// serve-delta's answer size made a cache hit take 0.35–0.7 ms instead of
// 0.15–0.2 ms, more than explaind's own work.
type client struct {
	srv  *server
	body bytes.Buffer
}

func (s *server) client() *client { return &client{srv: s} }

// post sends one JSON body through the server's handler, on the calling
// goroutine as it would run on a connection's, and returns the answer.
func (c *client) post(path string, payload []byte) reply {
	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	c.body.Reset()
	w := httptest.NewRecorder()
	w.Body = &c.body
	c.srv.handler.ServeHTTP(w, req)
	return reply{status: w.Code, body: c.body.Bytes(), cache: w.Header().Get("X-Explaind-Cache"), d: time.Since(start)}
}

// explainFailure reports why an /explain answer is not a valid, proven
// answer, or "" when it is one.
func explainFailure(r reply) string {
	if r.status != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", r.status, r.body)
	}
	var head struct{ TimedOut bool }
	if err := json.Unmarshal(r.body, &head); err != nil {
		return fmt.Sprintf("undecodable body: %v", err)
	}
	if head.TimedOut {
		return "solver budget expired (TimedOut)"
	}
	return ""
}

// deltaPayload renders a storage-layer delta for db1's relation rel as a
// POST /datasets/{name}/delta body.
func deltaPayload(rel string, d relation.Delta) ([]byte, error) {
	wd := serve.RelationDelta{Deletes: d.Deletes}
	for _, t := range d.Appends {
		wd.Appends = append(wd.Appends, tupleJSON(t))
	}
	for _, u := range d.Updates {
		wd.Updates = append(wd.Updates, serve.RowUpdate{Row: u.Row, Values: tupleJSON(u.Values)})
	}
	return json.Marshal(serve.DeltaRequest{DB1: map[string]serve.RelationDelta{rel: wd}})
}

func tupleJSON(t relation.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind() {
		case relation.KindString:
			out[i] = v.Str()
		case relation.KindInt:
			out[i] = v.IntVal()
		case relation.KindFloat:
			out[i] = v.FloatVal()
		case relation.KindBool:
			out[i] = v.BoolVal()
		default:
			out[i] = nil
		}
	}
	return out
}
