// Doc-drift gates: the documentation makes checkable claims about the
// code (the README's analyzer table mirrors the linter registry; DESIGN's
// suppression ledger mirrors the ignore directives in the tree; relative
// markdown links point at files that exist), and these tests fail when
// any drifts. They are the dynamic half of the documentation contract
// whose static half is the lint pkgdoc analyzer.
package eslurm_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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
