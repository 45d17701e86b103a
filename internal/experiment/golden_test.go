package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name byte for byte; -update
// rewrites the file first.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestEstimateTablesGolden pins the two estimator replays byte for byte at
// the sizes the estimate_replay benchmark workload runs them. They simulate
// no events, so the rendered tables are the whole contract of
// internal/estimate and internal/mlkit: a solver change that claims "same
// bits out" answers to this file, one that means to move the tables
// regenerates it with -update and says so.
func TestEstimateTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("estimator replay is slow")
	}
	var buf bytes.Buffer
	Table8(new(Env), 500).Fprint(&buf)
	Fig11b(new(Env), 2500).Fprint(&buf)
	checkGolden(t, "estimate_tables.golden", buf.Bytes())
}

// TestSchedTablesGolden pins the fig10 and ablation tables at the quick
// preset. They are the whole output of internal/sched's planner, so a
// scheduler refactor that claims "same schedule" answers to this file.
func TestSchedTablesGolden(t *testing.T) {
	p := QuickParams()
	var buf bytes.Buffer
	for _, tb := range Fig10(new(Env), p.Fig10Scales, p.Fig10Jobs) {
		tb.Fprint(&buf)
	}
	Ablation(new(Env), p.AblationScale, p.AblationJobs).Fprint(&buf)
	checkGolden(t, "sched_tables.golden", buf.Bytes())
}

// TestResourceTablesGolden pins, at the quick preset, every table read off
// the simulated daemons' meters and the wire: the resource figures (fig7,
// fig9, tables V–VI), the broadcast figures (fig7f, fig8a, fig8b, fig11a)
// and the design sweeps built on them. A change to the wire, the meters or
// a broadcaster that claims "same tables" answers to this file.
func TestResourceTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("resource runs are slow")
	}
	p := QuickParams()
	var buf bytes.Buffer
	for _, id := range []string{"fig7", "fig7f", "fig8a", "fig8b", "fig9", "table5", "fig11a",
		"ablation-width", "ablation-realloc", "rack-outage"} {
		spec, ok := Lookup(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		for _, tb := range spec.Run(new(Env), p) {
			tb.Fprint(&buf)
		}
	}
	checkGolden(t, "resource_tables.golden", buf.Bytes())
}
