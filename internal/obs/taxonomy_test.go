package obs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"eslurm/internal/obs"
)

// Emit-site patterns. Span names land via Tracer.Start/Instant; metric
// names via
// Registry.Counter/Gauge/Histogram. All names are dotted lowercase
// literals by convention, which is what keeps this scan precise.
var (
	spanCall   = regexp.MustCompile(`(?:\.Start|\.Instant|startSpan|instantSpan)\("([a-z]+\.[a-z_]+)"`)
	metricCall = regexp.MustCompile(`(?:Counter|Gauge|Histogram)\("([a-z]+\.[a-z_]+)"`)
)

// scanSources walks internal/ (skipping tests, testdata and the linter's
// fixture corpus) and collects every emitted span and metric name.
func scanSources(t *testing.T) (spans, metrics map[string]bool) {
	t.Helper()
	spans, metrics = map[string]bool{}, map[string]bool{}
	root := ".." // internal/, from internal/obs
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || path == filepath.Join(root, "lint") {
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
		for _, m := range spanCall.FindAllSubmatch(data, -1) {
			spans[string(m[1])] = true
		}
		for _, m := range metricCall.FindAllSubmatch(data, -1) {
			metrics[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return spans, metrics
}

// TestSpanTaxonomyComplete checks the taxonomy against the code in both
// directions: every emitted span name is documented, and every
// documented name is still emitted somewhere.
func TestSpanTaxonomyComplete(t *testing.T) {
	emitted, _ := scanSources(t)
	documented := map[string]bool{}
	for _, s := range obs.SpanTaxonomy() {
		if documented[s.Name] {
			t.Errorf("span %q listed twice in the taxonomy", s.Name)
		}
		documented[s.Name] = true
		if s.Kind != "span" && s.Kind != "instant" {
			t.Errorf("span %q has kind %q; want span or instant", s.Name, s.Kind)
		}
	}
	for name := range emitted {
		if !documented[name] {
			t.Errorf("span %q is emitted but missing from obs.SpanTaxonomy — document it (and OBSERVABILITY.md will follow)", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("span %q is documented in obs.SpanTaxonomy but no longer emitted anywhere", name)
		}
	}
}

// TestMetricTaxonomyComplete is the metric half of the same contract.
func TestMetricTaxonomyComplete(t *testing.T) {
	_, emitted := scanSources(t)
	documented := map[string]bool{}
	for _, m := range obs.MetricTaxonomy() {
		if documented[m.Name] {
			t.Errorf("metric %q listed twice in the taxonomy", m.Name)
		}
		documented[m.Name] = true
	}
	for name := range emitted {
		if !documented[name] {
			t.Errorf("metric %q is registered but missing from obs.MetricTaxonomy", name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("metric %q is documented in obs.MetricTaxonomy but no longer registered anywhere", name)
		}
	}
}
