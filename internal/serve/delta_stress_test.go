package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"explain3d/internal/datagen"
	"explain3d/internal/relation"
	"explain3d/internal/serve"
)

// TestDeltaStressMixed interleaves concurrent explain requests with delta
// applies under -race, across segment sizes. Every
// successful response carries the data version it was computed on
// (X-Explaind-Version), and its body must be byte-identical to a fresh
// one-shot Explain over that exact generation — including responses served
// mid-delta from a superseded generation.
func TestDeltaStressMixed(t *testing.T) {
	for _, segSize := range []int{1, 7, 4096} {
		t.Run(fmt.Sprintf("seg%d", segSize), func(t *testing.T) {
			runDeltaStress(t, segSize)
		})
	}
}

// stressDelta builds one mixed batch — two impact-only updates, one append,
// one delete — as both the wire form and the equivalent storage-layer delta
// so the test can maintain a local mirror for per-version references.
func stressDelta(t *testing.T, db *relation.Database, relName string, rng *rand.Rand, j int) (relation.Delta, serve.RelationDelta) {
	t.Helper()
	r, err := db.Relation(relName)
	if err != nil {
		t.Fatal(err)
	}
	n := r.Len()
	// Distinct row targets: two updates and one delete, non-overlapping.
	picks := map[int]bool{}
	for len(picks) < 3 {
		picks[rng.Intn(n)] = true
	}
	rows := make([]int, 0, 3)
	for ri := range picks {
		rows = append(rows, ri)
	}

	var ld relation.Delta
	var wd serve.RelationDelta
	for _, ri := range rows[:2] {
		row := r.RowInto(nil, ri)
		nv := int64(1 + rng.Intn(500))
		ld.Updates = append(ld.Updates, relation.RowUpdate{Row: ri, Values: relation.Tuple{
			row[0], row[1], relation.Int(nv), row[3],
		}})
		wd.Updates = append(wd.Updates, serve.RowUpdate{Row: ri, Values: []any{
			row[0].IntVal(), row[1].Str(), nv, row[3].IntVal(),
		}})
	}
	ld.Deletes = []int{rows[2]}
	wd.Deletes = []int{rows[2]}
	// Append a row borrowing an existing match attribute so it links.
	src := r.RowInto(nil, rng.Intn(n))
	id, val, eid := int64(1_000_000+j), int64(1+rng.Intn(500)), src[3].IntVal()
	ld.Appends = append(ld.Appends, relation.Tuple{
		relation.Int(id), src[1], relation.Int(val), relation.Int(eid),
	})
	wd.Appends = append(wd.Appends, []any{id, src[1].Str(), val, eid})
	return ld, wd
}

func runDeltaStress(t *testing.T, segSize int) {
	orig := relation.SegmentSize()
	relation.SetSegmentSize(segSize)
	defer relation.SetSegmentSize(orig)

	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: 90, Vocab: 50, WordsPerKey: 3, Disagree: 0.05, Noise: 0.05,
		Seed: int64(100 * segSize),
	})
	s := serve.New(serve.Options{})
	if err := s.Register("scen", sc.DB1, sc.DB2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	rq := scenarioRequest(sc)
	payload, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}

	// Script the delta sequence up front and precompute the reference body
	// for every generation by mirroring the deltas locally.
	const nDeltas = 3
	rng := rand.New(rand.NewSource(int64(7 * segSize)))
	rel1 := sc.Spec.Name + "1"
	db1 := sc.DB1
	want := make([][]byte, nDeltas+1)
	want[0] = scenarioOneShot(t, db1, sc.DB2, sc, rq)
	wire := make([]serve.DeltaRequest, nDeltas)
	for j := 0; j < nDeltas; j++ {
		ld, wd := stressDelta(t, db1, rel1, rng, j)
		ndb, _, err := db1.ApplyDelta(relation.DBDelta{rel1: ld})
		if err != nil {
			t.Fatal(err)
		}
		db1 = ndb
		wire[j] = serve.DeltaRequest{DB1: map[string]serve.RelationDelta{rel1: wd}}
		want[j+1] = scenarioOneShot(t, db1, sc.DB2, sc, rq)
	}

	// Hammer explains while the delta sequence lands. Each response names
	// its generation; the body must match that generation's reference.
	stop := make(chan struct{})
	fail := make(chan string, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/explain", "application/json", bytes.NewReader(payload))
				if err != nil {
					fail <- err.Error()
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail <- err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail <- fmt.Sprintf("status %d: %s", resp.StatusCode, body)
					return
				}
				v, err := strconv.Atoi(resp.Header.Get("X-Explaind-Version"))
				if err != nil || v < 0 || v > nDeltas {
					fail <- fmt.Sprintf("bad version header %q", resp.Header.Get("X-Explaind-Version"))
					return
				}
				if !bytes.Equal(body, want[v]) {
					fail <- fmt.Sprintf("generation %d body diverges from one-shot Explain", v)
					return
				}
			}
		}()
	}
	for j := 0; j < nDeltas; j++ {
		time.Sleep(3 * time.Millisecond)
		resp, dres, raw := postDelta(t, ts.URL, "scen", wire[j])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", j, resp.StatusCode, raw)
		}
		if dres.Version != int64(j+1) {
			t.Fatalf("delta %d: version %d, want %d", j, dres.Version, j+1)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}

	// Settled check: the final generation answers byte-identically.
	resp, body := post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settled status %d: %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-Explaind-Version"); v != strconv.Itoa(nDeltas) {
		t.Fatalf("settled version %q, want %d", v, nDeltas)
	}
	if !bytes.Equal(body, want[nDeltas]) {
		t.Fatal("settled body diverges from one-shot Explain on the final generation")
	}
}
