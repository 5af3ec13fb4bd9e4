package experiments

import (
	"fmt"
	"io"
	"time"

	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/summarize"
)

// DatasetStats is one Figure 4 row.
type DatasetStats struct {
	Name             string
	N1, N2           int // total dataset rows
	P1, P2           int // provenance sizes
	T1, T2           int // canonical sizes
	MTuple           int // initial mapping size
	MStar            int // optimal evidence size
	E, ES            int // optimal explanations, summarized size
	Result1, Result2 relation.Value
}

// AcademicReport bundles the Figure 4 statistics and Figure 6 comparison
// for one academic pair.
type AcademicReport struct {
	Stats   DatasetStats
	Results []MethodResult
}

// RunAcademic generates one academic pair, stages the comparison, and runs
// every method (Figures 6a–6f).
func RunAcademic(spec datagen.AcademicSpec, params core.Params) (*AcademicReport, error) {
	a := datagen.GenerateAcademic(spec)
	start := time.Now()
	inst, res, err := core.BuildInstance(core.Input{
		DB1: a.DB1, DB2: a.DB2, Q1: a.Q1, Q2: a.Q2, Mattr: a.Mattr,
		MinProb: 1e-9, // keep raw similarities; calibration filters later
		Workers: params.Workers,
	})
	if err != nil {
		return nil, err
	}
	mapTime := time.Since(start)
	pc, err := Prepare(inst, res, a.Mattr, "Major."+datagen.EIDColumn, "Stats."+datagen.EIDColumn, mapTime)
	if err != nil {
		return nil, err
	}
	report := &AcademicReport{}
	report.Stats = buildStats(spec.Name, a.DB1, a.DB2, res, pc)
	for _, m := range AllMethods() {
		r, err := pc.RunMethod(m, params, 0)
		if err != nil {
			return nil, err
		}
		report.Results = append(report.Results, r)
	}
	return report, nil
}

func buildStats(name string, db1, db2 *relation.Database, res *core.Result, pc *PreparedCase) DatasetStats {
	st := DatasetStats{
		Name: name,
		N1:   db1.TotalRows(), N2: db2.TotalRows(),
		P1: res.Prov1.Rel.Len(), P2: res.Prov2.Rel.Len(),
		T1: res.T1.Len(), T2: res.T2.Len(),
		MTuple:  len(pc.RawSims),
		MStar:   len(pc.Gold.Evidence),
		E:       pc.Gold.Size(),
		ES:      summarizedSize(res, pc.Gold),
		Result1: res.Prov1.Result, Result2: res.Prov2.Result,
	}
	return st
}

// summarizedSize runs Stage 3 on the gold explanations over both
// provenance relations and counts the resulting patterns (the |E| → |Es|
// column of Figure 4).
func summarizedSize(res *core.Result, gold *core.Explanations) int {
	count := 0
	count += len(SummarizeSide(res, gold, core.Left))
	count += len(SummarizeSide(res, gold, core.Right))
	return count
}

// SummarizeSide projects one side's explanation tuples onto its provenance
// relation and summarizes them with the Stage-3 pattern miner.
func SummarizeSide(res *core.Result, expl *core.Explanations, side core.Side) []*summarize.Pattern {
	canon, prov := res.T1, res.Prov1
	if side == core.Right {
		canon, prov = res.T2, res.Prov2
	}
	targets := make([]bool, prov.Rel.Len())
	mark := func(tuple int) {
		for _, row := range canon.Rows(tuple) {
			targets[row] = true
		}
	}
	any := false
	for _, pe := range expl.Prov {
		if pe.Side == side {
			mark(pe.Tuple)
			any = true
		}
	}
	for _, ve := range expl.Val {
		if ve.Side == side {
			mark(ve.Tuple)
			any = true
		}
	}
	if !any {
		return nil
	}
	display := displayRelation(prov)
	return summarize.Summarize(display, targets)
}

// displayRelation is a zero-copy view of the provenance relation without
// the impact and hidden entity-id columns, so summaries only mention real
// attributes.
func displayRelation(p *query.Provenance) *relation.Relation {
	var keep []int
	sch := &relation.Schema{}
	for i, col := range p.Rel.Schema.Columns {
		if col.Name == query.ImpactColumn || col.Name == datagen.EIDColumn {
			continue
		}
		keep = append(keep, i)
		sch.Columns = append(sch.Columns, col)
	}
	return p.Rel.ProjectColumns("", sch, keep)
}

// WriteStats renders a Figure 4 row.
func WriteStats(w io.Writer, st DatasetStats) {
	fmt.Fprintf(w, "%s: Q1=%v Q2=%v\n", st.Name, st.Result1, st.Result2)
	fmt.Fprintf(w, "  N=%d/%d  |P|=%d/%d  |T|=%d/%d  |Mtuple|=%d  |M*|=%d  |E|=%d → |Es|=%d\n",
		st.N1, st.N2, st.P1, st.P2, st.T1, st.T2, st.MTuple, st.MStar, st.E, st.ES)
}
