package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"explain3d/internal/relation"
)

// delta.go — POST /datasets/{name}/delta: apply a copy-on-write
// append/update/delete batch to a registered dataset pair and atomically
// publish the new generation. In-flight explain requests keep reading the
// generation they started on; only result-cache entries whose queries read
// a touched relation are invalidated.

// RelationDelta is one relation's batch in a delta request. Deletes and
// updates address pre-delta row positions; appends go to the end. Values
// follow JSON typing: numbers parse integer-first, strings/bools/nulls map
// to the corresponding relation values.
type RelationDelta struct {
	Appends [][]any     `json:"appends,omitempty"`
	Updates []RowUpdate `json:"updates,omitempty"`
	Deletes []int       `json:"deletes,omitempty"`
}

// RowUpdate replaces the whole tuple at a pre-delta row position.
type RowUpdate struct {
	Row    int   `json:"row"`
	Values []any `json:"values"`
}

// DeltaRequest is the POST /datasets/{name}/delta body: per-relation
// batches addressed to each side of the pair.
type DeltaRequest struct {
	DB1 map[string]RelationDelta `json:"db1,omitempty"`
	DB2 map[string]RelationDelta `json:"db2,omitempty"`
}

// RelationDeltaStats reports how one relation's batch applied.
type RelationDeltaStats struct {
	OldRows  int `json:"old_rows"`
	NewRows  int `json:"new_rows"`
	Appended int `json:"appended"`
	Updated  int `json:"updated"`
	Deleted  int `json:"deleted"`
}

// DeltaResponse is the delta endpoint's per-delta stats.
type DeltaResponse struct {
	// Version is the dataset's new data version.
	Version int64 `json:"version"`
	// Invalidated counts result-cache entries this delta dropped.
	Invalidated int                           `json:"invalidated"`
	DB1         map[string]RelationDeltaStats `json:"db1,omitempty"`
	DB2         map[string]RelationDeltaStats `json:"db2,omitempty"`
}

func lowerName(name string) string { return strings.ToLower(name) }

// toValue converts one JSON-decoded cell (decoded with UseNumber) to a
// relation value, integer-first for numbers.
func toValue(v any) (relation.Value, error) {
	switch x := v.(type) {
	case nil:
		return relation.Null(), nil
	case string:
		return relation.String(x), nil
	case bool:
		return relation.Bool(x), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return relation.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return relation.Value{}, fmt.Errorf("bad number %q", x)
		}
		return relation.Float(f), nil
	default:
		return relation.Value{}, fmt.Errorf("unsupported JSON value %T", v)
	}
}

func toTuple(vals []any) (relation.Tuple, error) {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		var err error
		if t[i], err = toValue(v); err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
	}
	return t, nil
}

// toDBDelta converts one side's request batches to the storage layer's
// delta form.
func toDBDelta(in map[string]RelationDelta) (relation.DBDelta, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(relation.DBDelta, len(in))
	for name, rd := range in {
		var d relation.Delta
		for ai, vals := range rd.Appends {
			t, err := toTuple(vals)
			if err != nil {
				return nil, fmt.Errorf("relation %q append %d: %w", name, ai, err)
			}
			d.Appends = append(d.Appends, t)
		}
		for ui, u := range rd.Updates {
			t, err := toTuple(u.Values)
			if err != nil {
				return nil, fmt.Errorf("relation %q update %d: %w", name, ui, err)
			}
			d.Updates = append(d.Updates, relation.RowUpdate{Row: u.Row, Values: t})
		}
		d.Deletes = append(d.Deletes, rd.Deletes...)
		if d.Empty() {
			return nil, fmt.Errorf("relation %q: empty batch", name)
		}
		out[name] = d
	}
	return out, nil
}

func statsOf(results map[string]*relation.DeltaResult) map[string]RelationDeltaStats {
	if len(results) == 0 {
		return nil
	}
	out := make(map[string]RelationDeltaStats, len(results))
	for name, r := range results {
		out[name] = RelationDeltaStats{
			OldRows: r.OldRows, NewRows: r.NewRows,
			Appended: r.Appended, Updated: r.Updated, Deleted: r.Deleted,
		}
	}
	return out
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.Dataset(r.PathValue("name"))
	if !ok {
		s.errCount.Add(1)
		httpError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("name"))
		return
	}
	var dr DeltaRequest
	if !s.decodeBody(w, r, maxDeltaBody, &dr) {
		return
	}
	dd1, err := toDBDelta(dr.DB1)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "db1: %v", err)
		return
	}
	dd2, err := toDBDelta(dr.DB2)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "db2: %v", err)
		return
	}
	if len(dd1) == 0 && len(dd2) == 0 {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "empty delta")
		return
	}

	// Serialize application so versions advance one at a time; readers are
	// never blocked — they keep the generation they loaded.
	ds.deltaMu.Lock()
	defer ds.deltaMu.Unlock()
	cur := ds.current()
	ndb1, res1 := cur.db1, map[string]*relation.DeltaResult(nil)
	if len(dd1) > 0 {
		if ndb1, res1, err = cur.db1.ApplyDelta(dd1); err != nil {
			s.errCount.Add(1)
			httpError(w, http.StatusBadRequest, "db1: %v", err)
			return
		}
	}
	ndb2, res2 := cur.db2, map[string]*relation.DeltaResult(nil)
	if len(dd2) > 0 {
		if ndb2, res2, err = cur.db2.ApplyDelta(dd2); err != nil {
			s.errCount.Add(1)
			httpError(w, http.StatusBadRequest, "db2: %v", err)
			return
		}
	}
	nv := &dataVersion{version: cur.version + 1, db1: ndb1, db2: ndb2}
	ds.cur.Store(nv)

	// Drop exactly the result-cache entries this delta could have changed,
	// and account the batch.
	touched := make(map[string]bool, len(res1)+len(res2))
	var rows int64
	for name, dres := range res1 {
		touched["1:"+name] = true
		rows += int64(dres.Appended + dres.Updated + dres.Deleted)
	}
	for name, dres := range res2 {
		touched["2:"+name] = true
		rows += int64(dres.Appended + dres.Updated + dres.Deleted)
	}
	inv := s.cache.invalidate(ds.Name, touched)
	s.deltasApplied.Add(1)
	s.deltaRows.Add(rows)

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Explaind-Version", fmt.Sprintf("%d", nv.version))
	json.NewEncoder(w).Encode(DeltaResponse{
		Version: nv.version, Invalidated: inv,
		DB1: statsOf(res1), DB2: statsOf(res2),
	})
}
