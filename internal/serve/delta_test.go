package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
	"explain3d/internal/serve"
)

// TestRegisterConflict pins the structured conflict error: a duplicate name
// is rejected with a *serve.ConflictError carrying the name, and the
// original dataset stays registered and untouched.
func TestRegisterConflict(t *testing.T) {
	pair := datagen.GenerateAcademic(academicSpec())
	s := serve.New(serve.Options{})
	defer s.Close()
	if err := s.Register("acad", pair.DB1, pair.DB2); err != nil {
		t.Fatal(err)
	}
	other := datagen.GenerateScenario(datagen.ScenarioSpec{Rows: 10, Seed: 1})
	err := s.Register("acad", other.DB1, other.DB2)
	var ce *serve.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("duplicate Register error = %v (%T), want *serve.ConflictError", err, err)
	}
	if ce.Name != "acad" {
		t.Fatalf("ConflictError.Name = %q, want %q", ce.Name, "acad")
	}
	ds, ok := s.Dataset("acad")
	if !ok || ds.Version() != 0 {
		t.Fatal("original dataset must survive the rejected re-registration")
	}
}

// scenarioServer registers a generated scenario pair (plus a spare relation
// on side 1 that no query reads) under the name "scen".
func scenarioServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server, *datagen.Scenario) {
	t.Helper()
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: 120, Vocab: 60, WordsPerKey: 3, Disagree: 0.05, Noise: 0.05, Seed: 42,
	})
	extra := relation.New("Extra", "a", "b")
	extra.AppendRow(relation.Tuple{relation.Int(1), relation.String("x")})
	sc.DB1.Add(extra)
	s := serve.New(opts)
	if err := s.Register("scen", sc.DB1, sc.DB2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, sc
}

func scenarioRequest(sc *datagen.Scenario) serve.Request {
	return serve.Request{
		Dataset: "scen", Q1: sc.Q1.String(), Q2: sc.Q2.String(),
		Matches: matchText(sc.Mattr), BatchSize: 12,
	}
}

// scenarioOneShot computes the reference body: a fresh one-shot Explain
// over the given database generations with the server's parameter
// resolution.
func scenarioOneShot(t *testing.T, db1, db2 *relation.Database, sc *datagen.Scenario, rq serve.Request) []byte {
	t.Helper()
	popt := linkage.DefaultPairOptions()
	if rq.MinSharedTokens > 0 {
		popt.MinSharedTokens = rq.MinSharedTokens
	}
	if rq.MinSim > 0 {
		popt.MinSim = rq.MinSim
	}
	params := explain3d.CoreParams(&explain3d.Options{
		Alpha: rq.Alpha, Beta: rq.Beta, BatchSize: rq.BatchSize, Workers: rq.Workers,
	})
	res, err := core.ExplainContext(context.Background(), core.Input{
		DB1: db1, DB2: db2, Q1: sc.Q1, Q2: sc.Q2, Mattr: sc.Mattr,
		MinProb: rq.MinProb, PairOpts: &popt,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(explain3d.ConvertResult(res, !rq.NoSummary))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postDelta(t *testing.T, url, name string, dr serve.DeltaRequest) (*http.Response, serve.DeltaResponse, []byte) {
	t.Helper()
	payload, err := json.Marshal(dr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/datasets/"+name+"/delta", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var out serve.DeltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("delta response: %v: %s", err, raw)
		}
	}
	return resp, out, raw
}

// TestDeltaEndToEnd drives the full delta path over HTTP: cold solve,
// cache hit, a delta to a relation no query reads (version bump, zero
// invalidation, still a hit, and a new request over the same Stage-1 key
// reuses every memo entry), then an impact-only delta to the queried
// relation (targeted invalidation, one side rebuilt, incremental prefix
// advance, solution-cache reuse) whose re-solve is byte-identical to a
// fresh one-shot Explain on the post-delta data. Metrics are pinned at each
// step.
func TestDeltaEndToEnd(t *testing.T) {
	s, ts, sc := scenarioServer(t, serve.Options{})
	rq := scenarioRequest(sc)

	resp, cold := post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, cold)
	}
	if v := resp.Header.Get("X-Explaind-Version"); v != "0" {
		t.Fatalf("cold version header %q, want 0", v)
	}
	if !bytes.Equal(cold, scenarioOneShot(t, sc.DB1, sc.DB2, sc, rq)) {
		t.Fatal("cold body differs from one-shot Explain")
	}
	if resp, body := post(t, ts.URL, rq); resp.Header.Get("X-Explaind-Cache") != "hit" || !bytes.Equal(body, cold) {
		t.Fatal("repeat must be a byte-identical cache hit")
	}
	if m := s.Metrics(); m.SideBuilds != 2 || m.IndexBuilds != 1 {
		t.Fatalf("cold SideBuilds/IndexBuilds = %d/%d, want 2/1", m.SideBuilds, m.IndexBuilds)
	}

	// Delta to the spare relation: version bumps, but no cached answer read
	// it, so nothing is invalidated and the repeat stays a hit.
	resp, dres, raw := postDelta(t, ts.URL, "scen", serve.DeltaRequest{
		DB1: map[string]serve.RelationDelta{
			"Extra": {Appends: [][]any{{2, "y"}, {3.5, nil}}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extra delta status %d: %s", resp.StatusCode, raw)
	}
	if dres.Version != 1 || dres.Invalidated != 0 {
		t.Fatalf("extra delta response = %+v, want version 1, invalidated 0", dres)
	}
	if st := dres.DB1["extra"]; st.OldRows != 1 || st.NewRows != 3 || st.Appended != 2 {
		t.Fatalf("extra delta stats = %+v", dres.DB1)
	}
	resp, body := post(t, ts.URL, rq)
	if resp.Header.Get("X-Explaind-Cache") != "hit" || !bytes.Equal(body, cold) {
		t.Fatal("untouched-relation delta must not invalidate the cached answer")
	}

	// A new result key over the same Stage-1 key on the new generation: the
	// sides, index and prefix all come from the memo, untouched.
	before := s.Metrics()
	rqAlpha := rq
	rqAlpha.Alpha = 0.95
	resp, body = post(t, ts.URL, rqAlpha)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Explaind-Cache") != "miss" {
		t.Fatalf("alpha request: status %d, disposition %q", resp.StatusCode, resp.Header.Get("X-Explaind-Cache"))
	}
	if !bytes.Equal(body, scenarioOneShot(t, sc.DB1, sc.DB2, sc, rqAlpha)) {
		t.Fatal("alpha body differs from one-shot Explain")
	}
	after := s.Metrics()
	if after.SideBuilds != before.SideBuilds || after.IndexBuilds != before.IndexBuilds ||
		after.PrefixBuilds != before.PrefixBuilds || after.PrefixAdvances != before.PrefixAdvances {
		t.Fatalf("Stage-1 work across an untouched-relation delta: side/index/prefix builds %d/%d/%d -> %d/%d/%d, advances %d -> %d",
			before.SideBuilds, before.IndexBuilds, before.PrefixBuilds,
			after.SideBuilds, after.IndexBuilds, after.PrefixBuilds,
			before.PrefixAdvances, after.PrefixAdvances)
	}

	// Impact-only delta to the queried relation: the cached answer dies,
	// the prefix advances from version 0, and untouched partitions replay
	// from the solution cache.
	rel1 := sc.Spec.Name + "1"
	r, err := sc.DB1.Relation(rel1)
	if err != nil {
		t.Fatal(err)
	}
	var updates []serve.RowUpdate
	var local relation.Delta
	for _, ri := range []int{3, 41, 77} {
		row := r.RowInto(nil, ri)
		newVal := row[2].IntVal() + 57
		updates = append(updates, serve.RowUpdate{Row: ri, Values: []any{
			row[0].IntVal(), row[1].Str(), newVal, row[3].IntVal(),
		}})
		local.Updates = append(local.Updates, relation.RowUpdate{Row: ri, Values: relation.Tuple{
			row[0], row[1], relation.Int(newVal), row[3],
		}})
	}
	resp, dres, raw = postDelta(t, ts.URL, "scen", serve.DeltaRequest{
		DB1: map[string]serve.RelationDelta{rel1: {Updates: updates}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("impact delta status %d: %s", resp.StatusCode, raw)
	}
	if dres.Version != 2 || dres.Invalidated != 2 {
		t.Fatalf("impact delta response = %+v, want version 2, invalidated 2", dres)
	}

	ndb1, _, err := sc.DB1.ApplyDelta(relation.DBDelta{rel1: local})
	if err != nil {
		t.Fatal(err)
	}
	want := scenarioOneShot(t, ndb1, sc.DB2, sc, rq)
	resp, got := post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-delta status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Explaind-Cache") != "miss" {
		t.Fatalf("post-delta disposition %q, want miss (entry was invalidated)", resp.Header.Get("X-Explaind-Cache"))
	}
	if v := resp.Header.Get("X-Explaind-Version"); v != "2" {
		t.Fatalf("post-delta version header %q, want 2", v)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-delta body differs from fresh one-shot Explain on the new generation")
	}

	m := s.Metrics()
	if m.DeltasApplied != 2 {
		t.Fatalf("DeltasApplied = %d, want 2", m.DeltasApplied)
	}
	if m.DeltaRows != 2+3 {
		t.Fatalf("DeltaRows = %d, want 5", m.DeltaRows)
	}
	if m.Invalidated != 2 {
		t.Fatalf("Invalidated = %d, want 2", m.Invalidated)
	}
	if m.SideBuilds != 3 || m.IndexBuilds != 1 {
		t.Fatalf("SideBuilds/IndexBuilds = %d/%d, want 3/1 (only side 1 is rebuilt)", m.SideBuilds, m.IndexBuilds)
	}
	if m.PrefixBuilds != 1 || m.PrefixAdvances != 1 {
		t.Fatalf("PrefixBuilds/Advances = %d/%d, want 1/1 (fresh cold build, one advance across two versions)",
			m.PrefixBuilds, m.PrefixAdvances)
	}
	if m.Solves != 3 {
		t.Fatalf("Solves = %d, want 3 (cold, alpha, post-delta)", m.Solves)
	}
	if m.SolutionHits == 0 {
		t.Fatal("solution cache never hit: untouched partitions must replay")
	}
	if m.DirtyPartitions == 0 || m.DirtyPartitions > 3 {
		t.Fatalf("DirtyPartitions = %d, want 1..3 (three updated base rows)", m.DirtyPartitions)
	}
	if m.SolutionMisses <= m.DirtyPartitions {
		t.Fatalf("SolutionMisses = %d: must include the cold solve's %d-partition build plus the dirty ones",
			m.SolutionMisses, m.SolutionMisses-m.DirtyPartitions)
	}
}

// TestDeltaDoesNotJoinStaleFlight holds a solve on generation 0, posts an
// update to Q1's relation, and asks the same question again: the repeat
// must start its own solve on generation 1 (a miss, not a join of the
// stale flight) and answer byte-identically to one-shot Explain on the new
// data, while the held request still answers for generation 0.
func TestDeltaDoesNotJoinStaleFlight(t *testing.T) {
	s, ts, sc := scenarioServer(t, serve.Options{})
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	s.SolveHook = func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
	}
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // a failed check must not leave the held solve blocking shutdown
	rq := scenarioRequest(sc)
	type reply struct {
		disposition, version string
		body                 []byte
		err                  error
	}
	send := func(out chan<- reply) {
		payload, _ := json.Marshal(rq)
		resp, err := http.Post(ts.URL+"/explain", "application/json", bytes.NewReader(payload))
		if err != nil {
			out <- reply{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		out <- reply{resp.Header.Get("X-Explaind-Cache"), resp.Header.Get("X-Explaind-Version"), body, err}
	}
	held, repeat := make(chan reply, 1), make(chan reply, 1)
	go send(held)
	<-entered

	rel1 := sc.Spec.Name + "1"
	ld, wd := stressDelta(t, sc.DB1, rel1, rand.New(rand.NewSource(5)), 0)
	resp, dres, raw := postDelta(t, ts.URL, "scen", serve.DeltaRequest{DB1: map[string]serve.RelationDelta{rel1: wd}})
	if resp.StatusCode != http.StatusOK || dres.Version != 1 {
		t.Fatalf("delta: status %d, version %d: %s", resp.StatusCode, dres.Version, raw)
	}
	ndb1, _, err := sc.DB1.ApplyDelta(relation.DBDelta{rel1: ld})
	if err != nil {
		t.Fatal(err)
	}
	go send(repeat)
	var r reply
	select {
	case r = <-repeat:
	case <-time.After(10 * time.Second):
		t.Fatal("the post-delta request is waiting on the held generation-0 solve")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.disposition != "miss" || r.version != "1" {
		t.Fatalf("post-delta disposition %q at version %q, want miss at 1", r.disposition, r.version)
	}
	if !bytes.Equal(r.body, scenarioOneShot(t, ndb1, sc.DB2, sc, rq)) {
		t.Fatal("post-delta body differs from one-shot Explain on the new generation")
	}

	unblock()
	if r = <-held; r.err != nil {
		t.Fatal(r.err)
	}
	if r.version != "0" {
		t.Fatalf("held request version %q, want 0", r.version)
	}
	if !bytes.Equal(r.body, scenarioOneShot(t, sc.DB1, sc.DB2, sc, rq)) {
		t.Fatal("held body differs from one-shot Explain on generation 0")
	}
}

// TestDeltaSide2 posts deltas to side 2 (the relation Q2 reads): first
// impact-only updates, which keep side 2's matched-column content and so
// its candidate index, then a batch that rewrites a key, deletes a row and
// appends a new key, which rebuilds the index inside the prefix advance.
// A last side-1 delta copies the rewritten side-2 key, which sits past the
// deleted row, so its dirty left row must find the partner in the rebuilt
// index at the shifted id. After each delta, the next /explain must equal a fresh
// one-shot Explain on the post-delta data.
func TestDeltaSide2(t *testing.T) {
	s, ts, sc := scenarioServer(t, serve.Options{})
	rq := scenarioRequest(sc)
	if resp, body := post(t, ts.URL, rq); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, body)
	}
	rel1, rel2 := sc.Spec.Name+"1", sc.Spec.Name+"2"
	r1, err := sc.DB1.Relation(rel1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.DB2.Relation(rel2)
	if err != nil {
		t.Fatal(err)
	}
	cells := func(row relation.Tuple) []any {
		return []any{row[0].IntVal(), row[1].Str(), row[2].IntVal(), row[3].IntVal()}
	}
	type step struct {
		db1   bool
		rel   string
		wire  serve.RelationDelta
		local relation.Delta
	}
	update := func(st *step, ri int, row relation.Tuple) {
		st.wire.Updates = append(st.wire.Updates, serve.RowUpdate{Row: ri, Values: cells(row)})
		st.local.Updates = append(st.local.Updates, relation.RowUpdate{Row: ri, Values: row})
	}
	impact := step{rel: rel2}
	for _, ri := range []int{5, 60, 100} {
		row := r2.RowInto(nil, ri)
		row[2] = relation.Int(row[2].IntVal() + 31)
		update(&impact, ri, row)
	}
	structural := step{rel: rel2}
	rewritten := r2.RowInto(nil, 17)
	rewritten[1] = relation.String(rewritten[1].Str() + " zz01")
	update(&structural, 17, rewritten)
	structural.wire.Deletes, structural.local.Deletes = []int{3}, []int{3}
	appended := relation.Tuple{relation.Int(900001), relation.String(r1.RowInto(nil, 42)[1].Str() + " zz02"),
		relation.Int(12), relation.Int(900001)}
	structural.wire.Appends = [][]any{cells(appended)}
	structural.local.Appends = []relation.Tuple{appended}
	left := step{db1: true, rel: rel1}
	copied := r1.RowInto(nil, 7)
	copied[1] = rewritten[1]
	update(&left, 7, copied)

	db1, db2 := sc.DB1, sc.DB2
	for i, st := range []step{impact, structural, left} {
		dr := serve.DeltaRequest{DB2: map[string]serve.RelationDelta{st.rel: st.wire}}
		db := &db2
		if st.db1 {
			dr = serve.DeltaRequest{DB1: map[string]serve.RelationDelta{st.rel: st.wire}}
			db = &db1
		}
		resp, _, raw := postDelta(t, ts.URL, "scen", dr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: delta status %d: %s", i, resp.StatusCode, raw)
		}
		if *db, _, err = (*db).ApplyDelta(relation.DBDelta{st.rel: st.local}); err != nil {
			t.Fatal(err)
		}
		resp, got := post(t, ts.URL, rq)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Explaind-Cache") != "miss" {
			t.Fatalf("step %d: status %d, disposition %q: %s", i, resp.StatusCode, resp.Header.Get("X-Explaind-Cache"), got)
		}
		if !bytes.Equal(got, scenarioOneShot(t, db1, db2, sc, rq)) {
			t.Fatalf("step %d: body differs from a fresh one-shot Explain on the post-delta data", i)
		}
	}
	if m := s.Metrics(); m.PrefixBuilds != 1 || m.PrefixAdvances != 3 {
		t.Fatalf("PrefixBuilds/Advances = %d/%d, want 1/3", m.PrefixBuilds, m.PrefixAdvances)
	}
}

// TestDeltaValidation covers the endpoint's error paths; failed deltas must
// not advance the version.
func TestDeltaValidation(t *testing.T) {
	_, ts, sc := scenarioServer(t, serve.Options{})
	rel1 := sc.Spec.Name + "1"

	resp, _, _ := postDelta(t, ts.URL, "nope", serve.DeltaRequest{
		DB1: map[string]serve.RelationDelta{rel1: {Deletes: []int{0}}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/datasets/scen/delta", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	resp, _, _ = postDelta(t, ts.URL, "scen", serve.DeltaRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty delta: status %d, want 400", resp.StatusCode)
	}

	resp, _, raw := postDelta(t, ts.URL, "scen", serve.DeltaRequest{
		DB1: map[string]serve.RelationDelta{rel1: {Deletes: []int{1 << 30}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range delete: status %d, want 400 (%s)", resp.StatusCode, raw)
	}

	resp, _, _ = postDelta(t, ts.URL, "scen", serve.DeltaRequest{
		DB1: map[string]serve.RelationDelta{"ghost": {Deletes: []int{0}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown relation: status %d, want 400", resp.StatusCode)
	}

	resp, _, raw = postDelta(t, ts.URL, "scen", serve.DeltaRequest{
		DB1: map[string]serve.RelationDelta{
			rel1:                  {Deletes: []int{0}},
			strings.ToUpper(rel1): {Deletes: []int{1}},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("one relation in two spellings: status %d, want 400 (%s)", resp.StatusCode, raw)
	}

	getResp, err := http.Get(ts.URL + "/datasets/scen/delta")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET delta: status %d, want 405", getResp.StatusCode)
	}

	var infos []struct {
		Version int64 `json:"version"`
	}
	dresp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(dresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if len(infos) != 1 || infos[0].Version != 0 {
		t.Fatalf("failed deltas must not advance the version: %+v", infos)
	}
}

// TestStage1MemoBounded applies more deltas to the queried relation than
// any fixed generation window would hold, explaining after each: the
// Stage-1 memo keeps one entry per query pair throughout, and the final
// answer is byte-identical to one-shot Explain on the final data.
func TestStage1MemoBounded(t *testing.T) {
	s, ts, sc := scenarioServer(t, serve.Options{})
	rq := scenarioRequest(sc)
	if resp, body := post(t, ts.URL, rq); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, body)
	}
	entries := s.Metrics().Stage1Entries
	if entries != 1 {
		t.Fatalf("cold Stage1Entries = %d, want 1 (one per query pair)", entries)
	}

	rel1 := sc.Spec.Name + "1"
	rng := rand.New(rand.NewSource(12))
	db1 := sc.DB1
	var body []byte
	for j := 0; j < 12; j++ {
		ld, wd := stressDelta(t, db1, rel1, rng, j)
		ndb, _, err := db1.ApplyDelta(relation.DBDelta{rel1: ld})
		if err != nil {
			t.Fatal(err)
		}
		db1 = ndb
		resp, _, raw := postDelta(t, ts.URL, "scen", serve.DeltaRequest{DB1: map[string]serve.RelationDelta{rel1: wd}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", j, resp.StatusCode, raw)
		}
		if resp, body = post(t, ts.URL, rq); resp.StatusCode != http.StatusOK {
			t.Fatalf("explain after delta %d: status %d: %s", j, resp.StatusCode, body)
		}
		if got := s.Metrics().Stage1Entries; got != entries {
			t.Fatalf("after delta %d: Stage1Entries = %d, want %d", j, got, entries)
		}
	}
	if !bytes.Equal(body, scenarioOneShot(t, db1, sc.DB2, sc, rq)) {
		t.Fatal("final body differs from one-shot Explain on the final data")
	}
}
