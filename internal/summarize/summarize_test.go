package summarize

import (
	"strings"
	"testing"

	"explain3d/internal/relation"
)

func academicRel() (*relation.Relation, []bool) {
	r := relation.New("Major", "Major", "Degree")
	rows := []struct {
		major, degree string
		target        bool
	}{
		{"Equine Management", "Associate", true},
		{"Turfgrass Management", "Associate", true},
		{"Sustainable Food", "Associate", true},
		{"Computer Science", "B.S.", false},
		{"Accounting", "B.S.", false},
		{"History", "B.A.", false},
		{"Dance", "B.A.", true},
	}
	targets := make([]bool, len(rows))
	for i, row := range rows {
		r.Append(row.major, row.degree)
		targets[i] = row.target
	}
	return r, targets
}

func TestSummarizeFindsCommonPattern(t *testing.T) {
	r, targets := academicRel()
	pats := Summarize(r, targets)
	if len(pats) == 0 {
		t.Fatal("no patterns")
	}
	// The Associate-degree cluster should compress into one pattern (the
	// paper's Example 1 summary), with Dance covered separately.
	joined := ""
	for _, p := range pats {
		joined += p.String() + "\n"
	}
	if !strings.Contains(joined, `Degree="Associate"`) {
		t.Fatalf("missing associate-degree pattern:\n%s", joined)
	}
	if len(pats) > 2 {
		t.Fatalf("summary should need at most 2 patterns, got %d:\n%s", len(pats), joined)
	}
	// Cover is total.
	covered := make([]bool, r.Len())
	for _, p := range pats {
		for i, row := range r.Tuples() {
			if p.Matches(row) {
				covered[i] = true
			}
		}
	}
	for i, tgt := range targets {
		if tgt && !covered[i] {
			t.Fatalf("target row %d uncovered", i)
		}
	}
}

func TestSummarizeAllTargets(t *testing.T) {
	r, _ := academicRel()
	targets := make([]bool, r.Len())
	for i := range targets {
		targets[i] = true
	}
	pats := Summarize(r, targets)
	// Everything is a target: the single wildcard-heavy pattern per degree
	// (or fewer) suffices; importantly, coverage is total.
	total := 0
	for _, p := range pats {
		total += p.Covered
	}
	if total != r.Len() {
		t.Fatalf("covered %d of %d", total, r.Len())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r, _ := academicRel()
	if pats := Summarize(r, make([]bool, r.Len())); len(pats) != 0 {
		t.Fatalf("no targets should produce no patterns: %v", pats)
	}
	if pats := Summarize(relation.New("e", "a"), nil); pats != nil {
		t.Fatalf("empty relation: %v", pats)
	}
}

func TestPatternString(t *testing.T) {
	r, targets := academicRel()
	pats := Summarize(r, targets)
	for _, p := range pats {
		if p.String() == "" {
			t.Fatal("empty pattern rendering")
		}
	}
}

func TestSummarizeMismatchedTargets(t *testing.T) {
	r, _ := academicRel()
	if pats := Summarize(r, []bool{true}); pats != nil {
		t.Fatalf("mismatched target length should return nil, got %v", pats)
	}
}
