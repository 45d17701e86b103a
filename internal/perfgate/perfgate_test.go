package perfgate

import (
	"path/filepath"
	"strings"
	"testing"
)

func baseRecord() *Record {
	return &Record{
		Preset: "quick", Parallel: 1, GOOS: "linux", GOARCH: "amd64", NumCPU: 1,
		EventsPerSec: 1_000_000,
		Experiments: []Experiment{
			{ID: "fig7f", Events: 20_000_000, EventsPerSec: 1_400_000},
			{ID: "fig10", Events: 14_000_000, EventsPerSec: 1_000_000},
			{ID: "table8", WallMS: 1000, Events: 0, EventsPerSec: 0},
		},
		Kernel: []Microbench{
			{Name: "EngineStep", NsPerOp: 160, AllocsPerOp: 0},
			{Name: "EngineRand", NsPerOp: 20, AllocsPerOp: 0},
		},
	}
}

// clone returns an independent copy safe to mutate per test.
func clone(r *Record) *Record {
	c := *r
	c.Experiments = append([]Experiment(nil), r.Experiments...)
	c.Kernel = append([]Microbench(nil), r.Kernel...)
	return &c
}

func TestIdenticalRecordsPass(t *testing.T) {
	base := baseRecord()
	rep := Compare(base, clone(base), Tolerance{})
	if rep.Regressions() != 0 {
		t.Fatalf("identical records regressed:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "perfgate: ok") {
		t.Fatalf("expected ok verdict, got:\n%s", rep)
	}
}

func TestNoiseWithinToleranceDoesNotFire(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.EventsPerSec = base.EventsPerSec * 0.80           // -20%, suite tol 25%
	fresh.Experiments[0].EventsPerSec = 1_400_000 * 0.65    // -35%, exp tol 40%
	fresh.Kernel[0].NsPerOp = base.Kernel[0].NsPerOp * 1.40 // +40%, micro tol 50%
	if rep := Compare(base, fresh, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("in-tolerance noise regressed:\n%s", rep)
	}
}

func TestSuiteThroughputRegressionFires(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.EventsPerSec = base.EventsPerSec * 0.70 // -30% > 25% tolerance
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 {
		t.Fatalf("want 1 regression, got %d:\n%s", rep.Regressions(), rep)
	}
	if !strings.Contains(rep.String(), "suite throughput") {
		t.Fatalf("wrong finding:\n%s", rep)
	}
}

func TestExperimentRegressionFires(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Experiments[1].EventsPerSec = 500_000 // -50% > 40% tolerance
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "experiment fig10") {
		t.Fatalf("want one fig10 regression:\n%s", rep)
	}
}

// TestZeroEventExperimentGatesWallTime covers the experiments that never
// touch the simulation kernel: with no events on either side their wall_ms
// is judged at the experiment tolerance, and like every timing it is
// demoted on a machine mismatch.
func TestZeroEventExperimentGatesWallTime(t *testing.T) {
	base := baseRecord()

	fresh := clone(base)
	fresh.Experiments[2].WallMS = 1350 // +35%, exp tol 40%
	if rep := Compare(base, fresh, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("in-tolerance wall time regressed:\n%s", rep)
	}

	fresh.Experiments[2].WallMS = 1500 // +50% > 40% tolerance
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "experiment table8 wall time") {
		t.Fatalf("want one table8 wall-time regression:\n%s", rep)
	}

	fresh.NumCPU = 4
	rep = Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 0 || !strings.Contains(rep.String(), "num_cpu differs") {
		t.Fatalf("want the wall-time check demoted to the num_cpu note:\n%s", rep)
	}

	// Below minGatedWallMS a swing is noise: table1 runs in microseconds,
	// fig5 in ~100 ms next to a neighbour under -parallel.
	for _, ms := range []float64{0.04, 124} {
		base.Experiments[2].WallMS = ms
		fresh = clone(base)
		fresh.Experiments[2].WallMS = ms * 10
		if rep := Compare(base, fresh, Tolerance{}); rep.Regressions() != 0 {
			t.Fatalf("sub-floor wall time %v ms must not be judged:\n%s", ms, rep)
		}
	}
}

func TestMicrobenchRegressionFires(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Kernel[1].NsPerOp = 35 // +75% > 50% tolerance
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "EngineRand") {
		t.Fatalf("want one EngineRand regression:\n%s", rep)
	}
}

func TestAllocRegressionHasZeroTolerance(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Kernel[0].AllocsPerOp = 1
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "allocations get zero tolerance") {
		t.Fatalf("want one alloc regression:\n%s", rep)
	}
}

// TestCPUMismatchSkipsTimingsButKeepsAllocs pins the honesty rule: on a
// different machine every timing check is demoted to a note, but the
// machine-independent allocation counts still gate.
func TestCPUMismatchSkipsTimingsButKeepsAllocs(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.NumCPU = 4
	fresh.EventsPerSec = 1 // would be a catastrophic "regression" if judged
	fresh.Kernel[0].NsPerOp = 9999
	fresh.Kernel[0].AllocsPerOp = 2
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 {
		t.Fatalf("want only the alloc regression, got %d:\n%s", rep.Regressions(), rep)
	}
	if !strings.Contains(rep.String(), "num_cpu differs") {
		t.Fatalf("missing num_cpu note:\n%s", rep)
	}
}

func TestMissingMicrobenchIsFatal(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Kernel = fresh.Kernel[:1]
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 1 || !strings.Contains(rep.String(), "missing from fresh run") {
		t.Fatalf("want fatal missing-microbench finding:\n%s", rep)
	}
}

func TestNewAndMissingExperimentsAreNotes(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Experiments = append(fresh.Experiments[:2], Experiment{ID: "fig99", Events: 1, EventsPerSec: 1})
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 0 {
		t.Fatalf("new/missing experiments must not be fatal:\n%s", rep)
	}
	out := rep.String()
	if !strings.Contains(out, "experiment table8 present in baseline but missing") ||
		!strings.Contains(out, "experiment fig99 is new") {
		t.Fatalf("missing churn notes:\n%s", out)
	}
}

func TestShardMismatchSkipsExperiment(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.Experiments[0].Shards = 4
	fresh.Experiments[0].EventsPerSec = 1 // must not be judged against the 0-shard baseline
	rep := Compare(base, fresh, Tolerance{})
	if rep.Regressions() != 0 || !strings.Contains(rep.String(), "shard count differs") {
		t.Fatalf("want shard-mismatch note, no regression:\n%s", rep)
	}
}

// TestEventCountsHaveZeroTolerance: an experiment's event count is a
// function of (preset, shards) alone, so when both agree any difference
// fails — one event, in either direction, on any machine — and when
// either differs the counts are not comparable and nothing fires.
func TestEventCountsHaveZeroTolerance(t *testing.T) {
	base := baseRecord()
	for _, delta := range []int{+1, -1} {
		fresh := clone(base)
		fresh.Experiments[0].Events = uint64(int(base.Experiments[0].Events) + delta)
		rep := Compare(base, fresh, Tolerance{})
		if rep.Regressions() != 1 || !strings.Contains(rep.String(), "experiment fig7f executed") {
			t.Fatalf("delta %+d: want one fig7f event-count failure:\n%s", delta, rep)
		}
		fresh.NumCPU = 4 // timings demoted; the count still gates
		if rep := Compare(base, fresh, Tolerance{}); rep.Regressions() != 1 {
			t.Fatalf("delta %+d on another machine: want the event-count failure to survive:\n%s", delta, rep)
		}
	}

	dropped := clone(base) // an engine the runner stopped accounting
	dropped.Experiments[1].Events, dropped.Experiments[1].EventsPerSec = 0, 0
	if rep := Compare(base, dropped, Tolerance{}); rep.Regressions() != 1 || !strings.Contains(rep.String(), "experiment fig10 executed 0 events") {
		t.Fatalf("want one fig10 event-count failure:\n%s", rep)
	}

	otherKernel := clone(base)
	otherKernel.Experiments[0].Shards = 2
	otherKernel.Experiments[0].Events *= 2
	if rep := Compare(base, otherKernel, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("event counts across shard settings must not be compared:\n%s", rep)
	}

	otherPreset := clone(base)
	otherPreset.Preset = "paper"
	otherPreset.Experiments[0].Events *= 10
	otherPreset.Experiments[0].EventsPerSec = base.Experiments[0].EventsPerSec
	if rep := Compare(base, otherPreset, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("event counts across presets must not be compared:\n%s", rep)
	}
}

func TestZeroTolerancesFallBackToDefaults(t *testing.T) {
	base := baseRecord()
	fresh := clone(base)
	fresh.EventsPerSec = base.EventsPerSec * 0.80 // within the 25% default
	if rep := Compare(base, fresh, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("zero tolerance did not fall back to defaults:\n%s", rep)
	}
	if rep := Compare(base, fresh, Tolerance{Suite: 0.10}); rep.Regressions() != 1 {
		t.Fatalf("explicit 10%% suite tolerance should fire:\n%s", rep)
	}
}

// TestLoadRealBaseline proves the committed BENCH_quick.json parses and
// self-compares clean, so the CI gate can never fail on a stale schema.
func TestLoadRealBaseline(t *testing.T) {
	rec, err := Load(filepath.Join("..", "..", "BENCH_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Preset != "quick" || len(rec.Kernel) == 0 || len(rec.Experiments) == 0 {
		t.Fatalf("implausible baseline: %+v", rec)
	}
	if rep := Compare(rec, rec, Tolerance{}); rep.Regressions() != 0 {
		t.Fatalf("baseline does not self-compare clean:\n%s", rep)
	}
}
