package lint

// An analysistest-style golden-file harness: each directory under
// testdata/src is one package; `// want "substring"` comments mark the
// line and message of every expected finding. A case fails if a want goes
// unmatched or an unexpected finding appears, so every case proves both
// that its analyzer fires on violations and stays silent on compliant
// code. The //eslurmlint:testpath directive lets a case masquerade as a
// different import path to exercise path-scoped rules.

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	testLdr    *Loader
	loaderErr  error
)

// testLoader returns a process-wide loader so the standard library is
// type-checked once across all cases.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		testLdr, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return testLdr
}

type want struct {
	file   string
	line   int
	substr string
}

var (
	wantRe  = regexp.MustCompile(`// want (.*)$`)
	quoteRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quoteRe.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted substring)", path, i+1)
			}
			for _, q := range quoted {
				s, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", path, i+1, q, err)
				}
				wants = append(wants, want{abs, i + 1, s})
			}
		}
	}
	return wants
}

// runCase loads one testdata package, runs the analyzers through the full
// Run pipeline (so suppressions apply), and diffs findings against the
// want comments.
func runCase(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	p, err := testLoader(t).LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if tp, ok := testPathOverride(p); ok {
		p.ImportPath = tp
	}
	wants := parseWants(t, dir)
	got := Run([]*Package{p}, analyzers)

	matched := make([]bool, len(got))
	for _, w := range wants {
		found := false
		for i, f := range got {
			if matched[i] || f.Pos.Filename != w.file || f.Pos.Line != w.line {
				continue
			}
			if strings.Contains(f.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected finding containing %q, got none", w.file, w.line, w.substr)
		}
	}
	for i, f := range got {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if t.Failed() {
		var all []string
		for _, f := range got {
			all = append(all, f.String())
		}
		t.Logf("all findings for %s:\n%s", name, strings.Join(all, "\n"))
	}
}

func TestWalltime(t *testing.T) {
	runCase(t, "walltime_bad", WalltimeAnalyzer)
	runCase(t, "walltime_good", WalltimeAnalyzer)
	runCase(t, "walltime_cmd", WalltimeAnalyzer)
	runCase(t, "walltime_suppressed", WalltimeAnalyzer)
}

func TestDetrand(t *testing.T) {
	runCase(t, "detrand_bad", DetrandAnalyzer)
	runCase(t, "detrand_good", DetrandAnalyzer)
	runCase(t, "detrand_simnet", DetrandAnalyzer)
}

func TestMaporder(t *testing.T) {
	runCase(t, "maporder_bad", MaporderAnalyzer)
	runCase(t, "maporder_good", MaporderAnalyzer)
}

// TestFloatsum pins maporder's float-accumulation effect: every
// floatsum_bad reduction fires maporder, and floatsum_good (ordered
// collections, integer sums, the sorted-keys fix, max) stays silent.
func TestFloatsum(t *testing.T) {
	runCase(t, "floatsum_bad", MaporderAnalyzer)
	runCase(t, "floatsum_good", MaporderAnalyzer)
	runCase(t, "floatsum_suppressed", MaporderAnalyzer)
}

// TestTaint pins the cross-function dataflow pass, including (in
// taint_bad) the exact source → intermediate calls → sink chains the
// finding messages must carry.
func TestTaint(t *testing.T) {
	runCase(t, "taint_bad", TaintAnalyzer)
	runCase(t, "taint_good", TaintAnalyzer)
	runCase(t, "taint_suppressed", TaintAnalyzer)
}

// TestGlobalmut pins the global-state audit, including the internal/lint
// scope exemption (globalmut_exempt).
func TestGlobalmut(t *testing.T) {
	runCase(t, "globalmut_bad", GlobalmutAnalyzer)
	runCase(t, "globalmut_good", GlobalmutAnalyzer)
	runCase(t, "globalmut_exempt", GlobalmutAnalyzer)
	runCase(t, "globalmut_suppressed", GlobalmutAnalyzer)
}

// TestStaleignore runs with walltime enabled so the directives under
// judgment target an analyzer that actually ran.
func TestStaleignore(t *testing.T) {
	runCase(t, "staleignore_bad", WalltimeAnalyzer, StaleignoreAnalyzer)
	runCase(t, "staleignore_good", WalltimeAnalyzer, StaleignoreAnalyzer)
	runCase(t, "staleignore_suppressed", WalltimeAnalyzer, StaleignoreAnalyzer)
}

// TestRunOnRealTree is the self-hosting check: the whole module must lint
// clean, so a regression anywhere fails the lint package's own tests even
// before CI runs the CLI.
func TestRunOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	l := testLoader(t)
	pkgs, err := l.LoadPatterns([]string{filepath.Join(l.ModuleRoot, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, f := range Run(pkgs, Analyzers()) {
		t.Errorf("tree not lint-clean: %s", f)
	}
}

// TestFindingString pins the canonical file:line: [analyzer] format the
// CLI and CI logs rely on.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "detrand", Message: "msg"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 7
	if got, want := f.String(), "a/b.go:7: [detrand] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if len(Analyzers()) != 6 {
		t.Fatalf("expected 6 analyzers, got %d", len(Analyzers()))
	}
}
