// Doc-drift gates and source scans: the documentation makes checkable
// claims about the code (the README's analyzer table mirrors the linter
// registry; DESIGN's suppression ledger mirrors the ignore directives in
// the tree; relative markdown links point at files that exist; every
// internal package doc states its determinism contract), and the
// determinism contract makes one claim no type checker sees (no two
// packages derive the same Engine.Rand stream label). These tests fail
// when any of them drifts.
package eslurm_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"eslurm/internal/lint"
	"eslurm/internal/obs"
)

// TestREADMEAnalyzerTable pins the README's analyzer table to the linter
// registry, byte for byte, in the exact format `eslurmlint -list` prints.
// Adding, renaming or re-documenting an analyzer without updating the
// README fails here with the block to paste.
func TestREADMEAnalyzerTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("| analyzer | rule |\n")
	b.WriteString("|----------|------|\n")
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(&b, "| `%s` | %s |\n", a.Name, a.Doc)
	}
	want := b.String()

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), want) {
		t.Errorf("README.md analyzer table drifted from the lint registry.\n"+
			"Replace the table with the output of `eslurmlint -list`:\n\n%s", want)
	}
}

// TestObservabilityTaxonomyTables pins OBSERVABILITY.md's span and
// metric tables to the registries in internal/obs/taxonomy.go, byte for
// byte, in the exact format `benchrunner -spans` prints. A taxonomy
// change without a handbook update fails here with the block to paste
// (and the taxonomy itself is pinned to the emit sites by the
// completeness tests in internal/obs).
func TestObservabilityTaxonomyTables(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"span":   obs.SpanTaxonomyMarkdown(),
		"metric": obs.MetricTaxonomyMarkdown(),
	} {
		if !strings.Contains(string(doc), want) {
			t.Errorf("OBSERVABILITY.md %s table drifted from the obs taxonomy.\n"+
				"Replace it with the matching block from `go run ./cmd/benchrunner -spans`:\n\n%s", name, want)
		}
	}
}

// ignoreDirective matches a suppression on a comment line of its own, the
// only form the linter honours; group 1 is the analyzer list.
var ignoreDirective = regexp.MustCompile(`^\s*//eslurmlint:ignore\s+(\S+)\s+\S`)

// ledgerRow matches one row of DESIGN.md's suppression ledger:
// | `file` | `analyzer` | reason |
var ledgerRow = regexp.MustCompile("^\\| `([^`]+)` \\| `([^`]+)` \\| (\\S.*) \\|$")

// TestSuppressionLedger pins DESIGN.md's suppression ledger to the tree:
// every //eslurmlint:ignore directive in non-test, non-testdata Go source
// has a (file, analyzer) row with a reason, and every row still has its
// directive. A new waiver therefore cannot land without being written
// down where the analyzer audit is read, and a deleted one cannot linger.
func TestSuppressionLedger(t *testing.T) {
	var inTree []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if m := ignoreDirective.FindStringSubmatch(line); m != nil {
				for _, analyzer := range strings.Split(m[1], ",") {
					inTree = append(inTree, filepath.ToSlash(path)+" "+analyzer)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const start, end = "<!-- suppression-ledger:start -->", "<!-- suppression-ledger:end -->"
	doc := string(design)
	i, j := strings.Index(doc, start), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md has no %s ... %s block", start, end)
	}
	var ledger []string
	for _, line := range strings.Split(doc[i+len(start):j], "\n") {
		if m := ledgerRow.FindStringSubmatch(line); m != nil {
			ledger = append(ledger, m[1]+" "+m[2])
		}
	}

	sort.Strings(inTree)
	sort.Strings(ledger)
	if got, want := strings.Join(ledger, "\n"), strings.Join(inTree, "\n"); got != want {
		t.Errorf("DESIGN.md suppression ledger drifted from the tree.\nledger (file analyzer):\n%s\n\nin-tree directives:\n%s", got, want)
	}
}

// mdLink matches inline markdown links/images; the destination is group 1.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// TestMarkdownLinksResolve walks the top-level docs and checks that every
// relative link destination exists on disk. External URLs and pure
// in-page anchors are out of scope — only file references can rot here.
func TestMarkdownLinksResolve(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			dest := m[1]
			if strings.Contains(dest, "://") || strings.HasPrefix(dest, "#") ||
				strings.HasPrefix(dest, "mailto:") {
				continue
			}
			// A link may carry an in-page anchor: DESIGN.md#observability.
			if i := strings.IndexByte(dest, '#'); i >= 0 {
				dest = dest[:i]
			}
			if dest == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(dest)); err != nil {
				t.Errorf("%s links to %q, which does not resolve: %v", doc, m[1], err)
			}
		}
	}
}

// parseTree parses every non-test Go file under root, keyed by directory
// relative to root. Nested testdata, hidden and underscore directories
// are skipped, as the go tool skips them.
func parseTree(t *testing.T, root string) (*token.FileSet, map[string][]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	dirs := make(map[string][]*ast.File)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dirs[filepath.ToSlash(rel)] = append(dirs[filepath.ToSlash(rel)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, dirs
}

// pkgdocViolations lists every package under root/internal whose package
// doc is missing or never mentions determinism (the stem "determinis",
// case-insensitive). Directive comments are not documentation:
// CommentGroup.Text strips them, as go/doc does.
func pkgdocViolations(t *testing.T, root string) []string {
	_, dirs := parseTree(t, root)
	var out []string
	for dir, files := range dirs {
		if dir != "internal" && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		var doc strings.Builder
		for _, f := range files {
			if f.Doc != nil {
				doc.WriteString(f.Doc.Text())
			}
		}
		switch {
		case strings.TrimSpace(doc.String()) == "":
			out = append(out, dir+": no package doc")
		case !strings.Contains(strings.ToLower(doc.String()), "determinis"):
			out = append(out, dir+": package doc never mentions determinism")
		}
	}
	sort.Strings(out)
	return out
}

// TestPackageDocsStateDeterminism: every internal package says what it
// models and how it upholds (or stays outside) the same-seed ⇒ same-trace
// contract. The committed fixture holds one package of each violation.
func TestPackageDocsStateDeterminism(t *testing.T) {
	for _, v := range pkgdocViolations(t, ".") {
		t.Errorf("%s: state the package's paper role and its determinism contract (same seed ⇒ same trace)", v)
	}
	got := strings.Join(pkgdocViolations(t, filepath.Join("testdata", "pkgdoc")), "\n")
	want := "internal/directiveonly: no package doc\ninternal/silent: package doc never mentions determinism"
	if got != want {
		t.Errorf("pkgdoc scan of the fixture:\n%s\nwant:\n%s", got, want)
	}
}

// randlabelViolations lists every Engine.Rand stream label that appears
// as a literal in more than one package directory under root, and every
// .Rand(...) call whose argument is not a string literal (the scan
// cannot follow it, so it must not exist). Engine.Rand memoizes one
// stream per label: two packages deriving the same label interleave
// their draws, so a draw added in one reorders the other's randomness.
func randlabelViolations(t *testing.T, root string) []string {
	fset, dirs := parseTree(t, root)
	byLabel := make(map[string]map[string]bool)
	var out []string
	for dir, files := range dirs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Rand" {
					return true
				}
				var lit *ast.BasicLit
				if len(call.Args) == 1 {
					lit, _ = call.Args[0].(*ast.BasicLit)
				}
				if lit == nil || lit.Kind != token.STRING {
					pos := fset.Position(call.Pos())
					out = append(out, fmt.Sprintf("%s:%d: Rand label is not a string literal", filepath.ToSlash(pos.Filename), pos.Line))
					return true
				}
				label, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if byLabel[label] == nil {
					byLabel[label] = make(map[string]bool)
				}
				byLabel[label][dir] = true
				return true
			})
		}
	}
	for label, pkgs := range byLabel {
		if len(pkgs) > 1 {
			var names []string
			for dir := range pkgs {
				names = append(names, dir)
			}
			sort.Strings(names)
			out = append(out, fmt.Sprintf("Rand(%q) in %s", label, strings.Join(names, ", ")))
		}
	}
	sort.Strings(out)
	return out
}

// TestRandLabelsPerPackage: no stream label is shared across packages,
// and every label is a literal the scan can see. The committed fixture
// holds one shared label and one computed label.
func TestRandLabelsPerPackage(t *testing.T) {
	for _, v := range randlabelViolations(t, ".") {
		t.Errorf("%s: qualify the label with the package name", v)
	}
	fixture := filepath.Join("testdata", "randlabel")
	got := strings.Join(randlabelViolations(t, fixture), "\n")
	want := `Rand("arrivals") in a, b` + "\n" +
		filepath.ToSlash(filepath.Join(fixture, "b", "b.go")) + ":13: Rand label is not a string literal"
	if got != want {
		t.Errorf("randlabel scan of the fixture:\n%s\nwant:\n%s", got, want)
	}
}
