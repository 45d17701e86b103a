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
	"runtime/debug"
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

// testPathOverride returns the //eslurmlint:testpath value, if any. It
// lets a testdata package exercise path-scoped rules (the ban table's
// allowed directories, maprange's helper package) although its real path lives under
// internal/lint/testdata.
func testPathOverride(p *Package) (string, bool) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if rest, ok := strings.CutPrefix(text, "eslurmlint:testpath"); ok {
					return strings.TrimSpace(rest), true
				}
			}
		}
	}
	return "", false
}

// runCase loads one testdata package, runs every analyzer over it through
// Run, and diffs the findings against the want comments, so a fixture
// pins what each rule reports on it and that the others stay silent.
func runCase(t *testing.T, name string) {
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
	got := Run([]*Package{p}, Analyzers())

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

// TestWalltime pins the ban table's host clock, environment and hostprof
// rows and their scope: walltime_examples fires outside internal/,
// walltime_cmd and walltime_hostprof are host side, and walltime_runner
// (the experiment suite runner) may call hostprof but not the clock
// itself.
func TestWalltime(t *testing.T) {
	for _, name := range []string{"walltime_bad", "walltime_good", "walltime_examples", "walltime_cmd", "walltime_hostprof", "walltime_runner"} {
		runCase(t, name)
	}
}

// TestDetrand pins the ban table's generator rows: the global math/rand
// and math/rand/v2 draws everywhere, and a constant-seeded rand.NewSource
// outside internal/simnet (detrand_simnet).
func TestDetrand(t *testing.T) {
	for _, name := range []string{"detrand_bad", "detrand_good", "detrand_simnet"} {
		runCase(t, name)
	}
}

// TestMaprange pins the map-range ban: every range over a map fires,
// whatever its body (maprange_bad holds the forms the old order-sensitivity
// rule let through: sorted-keys appends, integer sums, extrema), the
// mapkeys.Sorted and slice forms stay silent, and so does the helper
// package itself (maprange_helper).
func TestMaprange(t *testing.T) {
	for _, name := range []string{"maprange_bad", "maprange_good", "maprange_helper"} {
		runCase(t, name)
	}
}

// TestFloatsum pins float accumulation over a map: every floatsum_bad
// reduction fires, integer sums and extrema included, and floatsum_good
// (ordered collections, the sorted-keys helper) stays silent.
func TestFloatsum(t *testing.T) {
	runCase(t, "floatsum_bad")
	runCase(t, "floatsum_good")
}

// TestGlobalmut pins the global-state audit, including the internal/lint
// scope exemption (globalmut_exempt).
func TestGlobalmut(t *testing.T) {
	for _, name := range []string{"globalmut_bad", "globalmut_good", "globalmut_exempt"} {
		runCase(t, name)
	}
}

// TestRunOnRealTree is the determinism gate itself: every analyzer over
// every package of the module, the linter included, failing on any
// finding.
func TestRunOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	// Loading type-checks the standard library from source and drops most
	// of that syntax at once. A looser GC target for the load cuts this
	// test's wall time by about a quarter on a 2-CPU box, at ~140 MB peak
	// RSS instead of ~90.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	l := testLoader(t)
	pkgs, err := l.LoadModule()
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
// gate's failure messages use, and the size of the rule set.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "bannedcall", Message: "msg"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 7
	if got, want := f.String(), "a/b.go:7: [bannedcall] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if len(Analyzers()) != 3 {
		t.Fatalf("expected 3 analyzers, got %d", len(Analyzers()))
	}
}
