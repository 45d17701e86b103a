package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

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

	golden := filepath.Join("testdata", "estimate_tables.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("table8/fig11b drifted from golden (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
