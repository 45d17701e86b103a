// Doc-drift gates and source scans: the documentation makes checkable
// claims about the code (the README's analyzer table mirrors the linter
// registry; OBSERVABILITY's tables mirror the obs taxonomy; relative
// markdown links point at files that exist; every internal package doc
// states its determinism contract), and the
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

// hasTable reports whether doc embeds the generated markdown table (which
// ends in a newline) as a whole table: followed by a blank line or the end
// of the file, so a stale row left after it is drift too.
func hasTable(doc, table string) bool {
	return strings.Contains(doc+"\n", table+"\n")
}

// TestREADMEAnalyzerTable pins the README's analyzer table to the linter
// registry, byte for byte. Adding, renaming, deleting or re-documenting an
// analyzer without updating the README fails here with the block to
// paste.
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
	if !hasTable(string(readme), want) {
		t.Errorf("README.md analyzer table drifted from the lint registry.\n"+
			"Replace the whole table with this block, followed by a blank line:\n\n%s", want)
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
		if !hasTable(string(doc), want) {
			t.Errorf("OBSERVABILITY.md %s table drifted from the obs taxonomy.\n"+
				"Replace the whole table with this block, followed by a blank line:\n\n%s", name, want)
		}
	}
}

// TestDocTableGateCatchesStaleRow holds hasTable to its point: a table
// with an extra stale trailing row still contains the new table as a
// substring, and must not pass.
func TestDocTableGateCatchesStaleRow(t *testing.T) {
	table := "| a | b |\n|---|---|\n| `x` | y |\n"
	for doc, want := range map[string]bool{
		"intro\n\n" + table:                         true,
		"intro\n\n" + table + "\nmore\n":            true,
		"intro\n\n" + table + "| `stale` | z |\n":   false,
		"intro\n\n" + table + "| `stale` | z |\n\n": false,
		"intro\n\n" + table + "more\n":              false,
	} {
		if got := hasTable(doc, table); got != want {
			t.Errorf("hasTable(%q) = %v, want %v", doc, got, want)
		}
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
