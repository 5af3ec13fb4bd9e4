package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A want is one expected finding, parsed from a fixture's
// `// want `regexp“ comment: a finding must land on the comment's line with
// a message matching the pattern. Every finding must be claimed by exactly
// one want and every want by exactly one finding.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantPatternRe = regexp.MustCompile("`([^`]+)`")

func parseWants(t *testing.T, filename string) []*want {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	var wants []*want
	for i, line := range strings.Split(string(data), "\n") {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		ms := wantPatternRe.FindAllStringSubmatch(line[idx:], -1)
		if len(ms) == 0 {
			t.Fatalf("%s:%d: want comment with no backquoted pattern", filename, i+1)
		}
		for _, m := range ms {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", filename, i+1, m[1], err)
			}
			wants = append(wants, &want{file: filename, line: i + 1, re: re})
		}
	}
	return wants
}

// runFixture loads one fixture package and runs the whole suite over it —
// harvest, analyzers, suppression filtering — comparing the surviving
// findings against the fixture's want comments. asPath controls the import
// path the package is checked under (floateq's Match keys on it).
func runFixture(t *testing.T, name, asPath string) []Finding {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	loader := NewLoader(dir, "")
	pkg, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	findings, err := RunPackages(loader.Fset, []*Package{pkg}, "")
	if err != nil {
		t.Fatalf("running suite on fixture %s: %v", name, err)
	}
	var wants []*want
	for _, fn := range pkg.Filenames {
		wants = append(wants, parseWants(t, fn)...)
	}
	for _, f := range findings {
		claimed := false
		for _, w := range wants {
			if !w.used && w.line == f.Line && w.re.MatchString(f.Message) {
				w.used = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
		}
	}
	return findings
}

func TestMapIterFixture(t *testing.T) { runFixture(t, "mapiter", "fixture/mapiter") }
func TestCtxRootFixture(t *testing.T) { runFixture(t, "ctxroot", "fixture/ctxroot") }

// TestMapIterModelFixture checks the model-building rule under an import
// path ending in internal/milp, where the fixture's Model is the solver's.
func TestMapIterModelFixture(t *testing.T) {
	runFixture(t, "mapitermilp", "fixture/internal/milp")
}
func TestGuardedFixture(t *testing.T)   { runFixture(t, "guarded", "fixture/guarded") }
func TestViewAliasFixture(t *testing.T) { runFixture(t, "viewalias", "fixture/viewalias") }

// TestFloatEqFixture checks the fixture under an import path the analyzer's
// Match accepts, so the scoping and the checks are both exercised.
func TestFloatEqFixture(t *testing.T) {
	runFixture(t, "floateq", "fixture/internal/milp/floateq")
}

// TestFloatEqScoping: the same fixture under a non-solver import path must
// produce no floateq findings at all — Match scopes the analyzer out.
func TestFloatEqScoping(t *testing.T) {
	dir := filepath.Join("testdata", "src", "floateq")
	loader := NewLoader(dir, "")
	pkg, err := loader.LoadDir(dir, "fixture/elsewhere/floateq")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := RunPackages(loader.Fset, []*Package{pkg}, "")
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		if f.Analyzer == "floateq" {
			t.Errorf("floateq fired outside internal/milp: %s", f)
		}
	}
}

// TestDirectiveValidation: malformed //lint: comments are findings of the
// pseudo-analyzer "lint" on the comment lines themselves (a want comment
// there would change the directive's arguments, so expectations are
// explicit).
func TestDirectiveValidation(t *testing.T) {
	dir := filepath.Join("testdata", "src", "directives")
	loader := NewLoader(dir, "")
	pkg, err := loader.LoadDir(dir, "fixture/directives")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := RunPackages(loader.Fset, []*Package{pkg}, "")
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	expected := []string{
		`malformed //lint:ignore: need "//lint:ignore <analyzer> <reason>"`,
		`//lint:ignore names unknown analyzer "nosuchanalyzer"`,
		`unknown directive //lint:frobnicate`,
		`malformed //lint:floatexact: a justifying reason is mandatory`,
	}
	if len(findings) != len(expected) {
		t.Errorf("got %d findings, want %d:", len(findings), len(expected))
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
	for _, substr := range expected {
		found := false
		for _, f := range findings {
			if f.Analyzer == "lint" && strings.Contains(f.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no lint finding containing %q", substr)
		}
	}
}

// TestRepoLintsClean is the acceptance gate in test form: the repository
// itself must lint clean — every real finding is either fixed or carries a
// documented suppression.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := Run(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("lint run failed: %v", err)
	}
	for _, f := range findings {
		t.Errorf("repository is not lint-clean: %s", f)
	}
}

// TestFindingJSON pins the -json record shape the CI gate and editors
// consume.
func TestFindingJSON(t *testing.T) {
	b, err := json.Marshal(Finding{File: "a.go", Line: 3, Col: 7, Analyzer: "mapiter", Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	const exp = `{"file":"a.go","line":3,"col":7,"analyzer":"mapiter","message":"m"}`
	if string(b) != exp {
		t.Errorf("Finding JSON = %s, want %s", b, exp)
	}
}
