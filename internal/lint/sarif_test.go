package lint

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func decodeSARIF(t *testing.T, s string) sarifLog {
	t.Helper()
	var log sarifLog
	if err := json.Unmarshal([]byte(s), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, s)
	}
	return log
}

// TestWriteSARIF pins the shape code scanning depends on: version 2.1.0,
// one rule per analyzer plus the suppress pseudo-rule, and results whose
// URIs are slash-separated paths relative to the base directory.
func TestWriteSARIF(t *testing.T) {
	findings := []Finding{
		{
			Pos:      token.Position{Filename: "/repo/internal/sched/controller.go", Line: 42, Column: 7},
			Analyzer: "maporder",
			Message:  "map iteration returns the range key or value",
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/z.go", Line: 3},
			Analyzer: "suppress",
			Message:  "eslurmlint:ignore needs a reason",
		},
	}
	var b strings.Builder
	if err := WriteSARIF(&b, findings, Analyzers(), "/repo"); err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, b.String())

	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "eslurmlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
		ruleIDs[r.ID] = true
	}
	for _, a := range Analyzers() {
		if !ruleIDs[a.Name] {
			t.Errorf("missing rule for analyzer %s", a.Name)
		}
	}
	if !ruleIDs["suppress"] {
		t.Error("missing rule for the suppress pseudo-analyzer")
	}

	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	r0 := run.Results[0]
	if r0.RuleID != "maporder" || r0.Level != "error" {
		t.Errorf("result 0 ruleId/level = %q/%q", r0.RuleID, r0.Level)
	}
	loc := r0.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/sched/controller.go" {
		t.Errorf("uri = %q, want path relative to base dir", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("region = %+v", loc.Region)
	}
	// A file outside the base dir keeps its absolute path rather than
	// escaping upward with ../ segments.
	u1 := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI
	if strings.HasPrefix(u1, "..") {
		t.Errorf("outside-base uri escapes upward: %q", u1)
	}
}

// TestWriteSARIFEmpty: a clean run still emits a complete log with an
// empty (not null) results array — upload actions reject null — and the
// full rule table, so code scanning can close out previously open alerts.
func TestWriteSARIFEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteSARIF(&b, nil, Analyzers(), "/repo"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"results": []`) {
		t.Errorf("empty run must serialize results as []:\n%s", b.String())
	}
	log := decodeSARIF(t, b.String())
	if len(log.Runs) != 1 || log.Runs[0].Results == nil {
		t.Error("runs/results shape wrong for the empty log")
	}
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(Analyzers())+1; got != want {
		t.Errorf("empty log carries %d rules, want %d (all analyzers + suppress)", got, want)
	}
}

// TestWriteSARIFMultiPackage: findings spanning several packages land in
// one run, keep their input (position-sorted) order, and each URI is
// relativized independently.
func TestWriteSARIFMultiPackage(t *testing.T) {
	findings := []Finding{
		{Pos: token.Position{Filename: "/repo/internal/comm/comm.go", Line: 5, Column: 2}, Analyzer: "walltime", Message: "a"},
		{Pos: token.Position{Filename: "/repo/internal/sched/controller.go", Line: 9, Column: 1}, Analyzer: "detrand", Message: "b"},
		{Pos: token.Position{Filename: "/repo/internal/simnet/engine.go", Line: 1, Column: 1}, Analyzer: "globalmut", Message: "c"},
	}
	var b strings.Builder
	if err := WriteSARIF(&b, findings, Analyzers(), "/repo"); err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, b.String())
	run := log.Runs[0]
	if len(run.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(run.Results))
	}
	wantURIs := []string{"internal/comm/comm.go", "internal/sched/controller.go", "internal/simnet/engine.go"}
	wantRules := []string{"walltime", "detrand", "globalmut"}
	for i, r := range run.Results {
		if uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != wantURIs[i] {
			t.Errorf("result %d uri = %q, want %q", i, uri, wantURIs[i])
		}
		if r.RuleID != wantRules[i] {
			t.Errorf("result %d ruleId = %q, want %q", i, r.RuleID, wantRules[i])
		}
	}
}

// TestSARIFSuppressedNotSurfaced drives the full pipeline into the SARIF
// writer: a finding silenced by a reasoned //eslurmlint:ignore must not
// appear as a code-scanning alert, while an unsuppressed finding in the
// same package must.
func TestSARIFSuppressedNotSurfaced(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"sim/sim.go": `//eslurmlint:testpath tmpmod/internal/sim

// Package sim is a SARIF suppression fixture.
package sim

import "time"

// Suppressed reads the clock under a reasoned ignore.
func Suppressed() time.Time {
	//eslurmlint:ignore walltime fixture timestamp, never reaches a simulation
	return time.Now()
}

// Live reads the clock with no suppression: the one expected alert.
func Live() time.Time {
	return time.Now()
}
`,
	}
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "sim"))
	if err != nil {
		t.Fatal(err)
	}
	if tp, ok := testPathOverride(p); ok {
		p.ImportPath = tp
	}
	analyzers := []*Analyzer{WalltimeAnalyzer}
	findings := Run([]*Package{p}, analyzers)

	var b strings.Builder
	if err := WriteSARIF(&b, findings, analyzers, root); err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, b.String())
	results := log.Runs[0].Results
	if len(results) != 1 {
		t.Fatalf("results = %d, want exactly the unsuppressed finding:\n%s", len(results), b.String())
	}
	if got := results[0].Locations[0].PhysicalLocation.Region.StartLine; got != 16 {
		t.Errorf("surviving alert at line %d, want 16 (the Live site); the suppressed site must not surface", got)
	}
}
