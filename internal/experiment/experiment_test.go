package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/rm"
	"eslurm/internal/simnet"
)

// parseDur converts the table-formatted duration strings back to a
// duration for shape assertions.
func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	mult := time.Nanosecond
	var num string
	switch {
	case strings.HasSuffix(s, "µs"):
		num, mult = strings.TrimSuffix(s, "µs"), time.Microsecond
	case strings.HasSuffix(s, "ms"):
		num, mult = strings.TrimSuffix(s, "ms"), time.Millisecond
	case strings.HasSuffix(s, "s"):
		num, mult = strings.TrimSuffix(s, "s"), time.Second
	case strings.HasSuffix(s, "m"):
		num, mult = strings.TrimSuffix(s, "m"), time.Minute
	case strings.HasSuffix(s, "h"):
		num, mult = strings.TrimSuffix(s, "h"), time.Hour
	case s == "0":
		return 0
	default:
		t.Fatalf("unparseable duration %q", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		t.Fatalf("unparseable duration %q: %v", s, err)
	}
	return time.Duration(f * float64(mult))
}

func TestTablePrinting(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bee"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a", "bee", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Static(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tb.Rows))
	}
	if tb.Rows[6][1] != "Tianhe-2A" || tb.Rows[6][2] != "Slurm" {
		t.Errorf("rank 7 row = %v", tb.Rows[6])
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range Registry() {
		if ids[s.ID] {
			t.Fatalf("duplicate experiment %q", s.ID)
		}
		ids[s.ID] = true
	}
	for _, want := range []string{"table1", "fig5", "fig7", "fig7f", "fig8a", "fig8b",
		"placement", "fig9", "table5", "fig11a", "fig10", "ablation", "table8", "fig11b"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, ok := Lookup("table6"); !ok {
		t.Error("table6 alias broken")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestFig5Shapes(t *testing.T) {
	tabs := Fig5(8000)
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	// CDF at the largest threshold approaches 1 for both systems.
	cdf := tabs[0]
	last := cdf.Rows[len(cdf.Rows)-1]
	for col := 1; col <= 2; col++ {
		v, _ := strconv.ParseFloat(last[col], 64)
		if v < 0.9 {
			t.Errorf("CDF(16) col %d = %v", col, v)
		}
	}
	// Correlation decays for both systems.
	corr := tabs[1]
	first, _ := strconv.ParseFloat(corr.Rows[0][1], 64)
	lastV, _ := strconv.ParseFloat(corr.Rows[len(corr.Rows)-1][1], 64)
	if first <= lastV {
		t.Errorf("Tianhe-2A interval correlation did not decay: %v -> %v", first, lastV)
	}
}

func TestFig7fShape(t *testing.T) {
	tb := Fig7f(new(Env), 512, []int{32, 512})
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 RMs", len(tb.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tb.Rows {
		byName[r[0]] = r
	}
	// SGE's RM overhead (occupation minus the fixed 10s runtime) explodes
	// with size; ESlurm stays below 15s total.
	sgeSmall := parseDur(t, byName["SGE"][1]) - 10*time.Second
	sgeBig := parseDur(t, byName["SGE"][2]) - 10*time.Second
	if sgeBig < 5*sgeSmall {
		t.Errorf("SGE overhead did not degrade: %v -> %v", sgeSmall, sgeBig)
	}
	for _, cell := range byName["ESlurm"][1:] {
		if d := parseDur(t, cell); d > 15*time.Second {
			t.Errorf("ESlurm occupation %v exceeds 15s", d)
		}
	}
	if eBig := parseDur(t, byName["ESlurm"][2]); eBig >= sgeBig+10*time.Second {
		t.Errorf("ESlurm (%v) not faster than SGE (%v) at full size", eBig, sgeBig+10*time.Second)
	}
}

func TestFig8aShape(t *testing.T) {
	tb := Fig8a(new(Env), 1024)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	slurmLoad := parseDur(t, tb.Rows[0][1])
	noFP := parseDur(t, tb.Rows[1][1])
	full := parseDur(t, tb.Rows[2][1])
	if full >= slurmLoad {
		t.Errorf("ESlurm (%v) not faster than Slurm (%v)", full, slurmLoad)
	}
	if full > noFP {
		t.Errorf("FP-Tree (%v) slower than no-FP (%v)", full, noFP)
	}
}

func TestFig8bShape(t *testing.T) {
	tb := Fig8b(new(Env), 512, []float64{0, 0.3})
	byName := map[string][]string{}
	for _, r := range tb.Rows {
		byName[r[0]] = r
	}
	// Ring and tree degrade under failures; FP-Tree stays fast and is the
	// fastest structure at 30%.
	for _, s := range []string{"ring", "tree"} {
		clean := parseDur(t, byName[s][1])
		dirty := parseDur(t, byName[s][2])
		if dirty <= clean {
			t.Errorf("%s did not degrade: %v -> %v", s, clean, dirty)
		}
	}
	fp := parseDur(t, byName["fptree"][2])
	if fp > 10*time.Second {
		t.Errorf("FP-Tree at 30%% failures = %v, want < 10s", fp)
	}
	for _, s := range []string{"ring", "star", "tree"} {
		if parseDur(t, byName[s][2]) <= fp {
			t.Errorf("%s at 30%% not slower than FP-Tree", s)
		}
	}
}

func TestPlacementShape(t *testing.T) {
	tb := Placement(new(Env), 512, 1)
	vals := map[string]string{}
	for _, r := range tb.Rows {
		vals[r[0]] = r[1]
	}
	trees, _ := strconv.Atoi(vals["FP-Trees built"])
	if trees == 0 {
		t.Fatal("no FP-Trees built")
	}
	ratio := strings.TrimSuffix(vals["leaf placement ratio"], "%")
	r, _ := strconv.ParseFloat(ratio, 64)
	// The alert predictor detects ~85%; placement should land near that
	// (paper: 81.7%).
	if r < 60 || r > 100 {
		t.Errorf("leaf placement ratio = %v%%, want ~80%%", r)
	}
}

func TestFig11aShape(t *testing.T) {
	tb := Fig11a(new(Env), 2048, []int{1, 8, 32})
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// One satellite is clearly worse than eight (parallel relays).
	one := parseDur(t, tb.Rows[0][1])
	eight := parseDur(t, tb.Rows[1][1])
	if eight >= one {
		t.Errorf("8 satellites (%v) not faster than 1 (%v)", eight, one)
	}
}

func TestQuickSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still takes tens of seconds")
	}
	// The smallest representative run of the estimator + sched drivers.
	tabs := Fig10(new(Env), []int{256}, 800)
	if len(tabs) != 3 {
		t.Fatalf("fig10 tables = %d", len(tabs))
	}
	byName := map[string][]string{}
	for _, r := range tabs[0].Rows {
		byName[r[0]] = r
	}
	for _, name := range []string{"SGE", "Slurm", "ESlurm"} {
		if len(byName[name]) == 0 || byName[name][1] == "-" {
			t.Errorf("%s missing from 256-node column", name)
		}
	}
	// ESlurm utilization >= Slurm's at the measured scale.
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		return v
	}
	if parse(byName["ESlurm"][1]) < parse(byName["Slurm"][1])-2 {
		t.Errorf("ESlurm utilization %s well below Slurm %s", byName["ESlurm"][1], byName["Slurm"][1])
	}
}

func TestTable8Trend(t *testing.T) {
	if testing.Short() {
		t.Skip("estimator sweep is slow")
	}
	tb := Table8(new(Env), 2000)
	if len(tb.Rows) != 9 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// UR decreases from alpha=1.00 to alpha=1.08.
	ur0, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	ur8, _ := strconv.ParseFloat(tb.Rows[8][2], 64)
	if ur8 >= ur0 {
		t.Errorf("UR did not fall with alpha: %v -> %v", ur0, ur8)
	}
}

func TestAblationDrivers(t *testing.T) {
	w := AblationTreeWidth(new(Env), 256, []int{4, 32})
	if len(w.Rows) != 2 {
		t.Fatalf("width rows = %d", len(w.Rows))
	}
	// Narrower trees are deeper.
	if w.Rows[0][1] <= w.Rows[1][1] {
		t.Errorf("depth not decreasing with width: %v vs %v", w.Rows[0][1], w.Rows[1][1])
	}

	r := AblationReallocLimit(new(Env), 128, []int{0, 2})
	if len(r.Rows) != 2 {
		t.Fatalf("realloc rows = %d", len(r.Rows))
	}
	// limit=0 produces takeovers and no reallocations; limit=2 the reverse.
	if r.Rows[0][2] != "0" || r.Rows[0][3] == "0" {
		t.Errorf("limit=0 row wrong: %v", r.Rows[0])
	}
	if r.Rows[1][2] == "0" {
		t.Errorf("limit=2 row wrong: %v", r.Rows[1])
	}

	tp := AblationTopology(new(Env), 1024, 0.02)
	if len(tp.Rows) != 3 {
		t.Fatalf("topo rows = %d", len(tp.Rows))
	}
	parse := func(s string) int {
		var v int
		fmt.Sscanf(s, "%d", &v)
		return v
	}
	random, aware, composed := parse(tp.Rows[0][1]), parse(tp.Rows[1][1]), parse(tp.Rows[2][1])
	if aware >= random {
		t.Errorf("topology-aware cost %d >= random %d", aware, random)
	}
	if composed > aware*13/10 {
		t.Errorf("fine-tuned cost %d destroys locality (aware %d)", composed, aware)
	}
}

// silentRM answers LoadJob only when answerLoad is set and never answers
// TerminateJob: the probe must fail loudly on whichever answer is missing.
type silentRM struct{ answerLoad bool }

func (silentRM) Name() string { return "Silent" }
func (silentRM) Start()       {}
func (silentRM) Stop()        {}
func (s silentRM) LoadJob(_ []cluster.NodeID, done func(comm.Result)) {
	if s.answerLoad {
		done(comm.Result{DeliveredElapsed: time.Second})
	}
}
func (silentRM) TerminateJob([]cluster.NodeID, func(comm.Result)) {}
func (silentRM) Meter() *cluster.ResourceMeter                    { return nil }

// TestOccupationProbeFailsLoudly: a callback that never fires within the
// probe's horizon panics with the RM name and both sizes instead of
// reporting a zero latency.
func TestOccupationProbeFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		rm   silentRM
		want string
	}{
		{silentRM{}, "Silent never answered LoadJob within 30m (64-node cluster, 16-node job)"},
		{silentRM{answerLoad: true}, "Silent never answered TerminateJob within 30m (64-node cluster, 16-node job)"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("panic = %q, want it to contain %q", msg, tc.want)
				}
			}()
			OccupationProbe(new(Env), func(*cluster.Cluster) rm.RM { return tc.rm }, 64, 16, 0)
		}()
	}
}

// TestRMRosterDistinctNames: the roster every driver builds its RMs from
// holds six distinct RMs, each named in the table as it names itself.
func TestRMRosterDistinctNames(t *testing.T) {
	c := cluster.New(simnet.NewEngine(1), cluster.Config{Computes: 16, Satellites: 2})
	roster := rmRoster(plainESlurm)
	seen := map[string]bool{}
	for _, m := range roster {
		r := m.new(c)
		if r.Name() != m.name {
			t.Errorf("roster entry %q builds an RM named %q", m.name, r.Name())
		}
		if seen[m.name] {
			t.Fatalf("duplicate RM name %q", m.name)
		}
		seen[m.name] = true
	}
	if len(roster) != 6 || !seen["ESlurm"] || !seen["Slurm"] || !seen["SGE"] {
		t.Errorf("roster = %v, want the paper's six RMs", seen)
	}
}
