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
	Table8(500).Fprint(&buf)
	Fig11b(2500).Fprint(&buf)
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
