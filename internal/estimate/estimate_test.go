package estimate

import (
	"slices"
	"testing"
	"time"

	"eslurm/internal/mlkit"
	"eslurm/internal/obs"
	"eslurm/internal/trace"
)

func TestEAEq4(t *testing.T) {
	cases := []struct {
		pred, actual time.Duration
		want         float64
	}{
		{time.Hour, time.Hour, 1.0},
		{30 * time.Minute, time.Hour, 0.5}, // underestimate: t_p/t_r
		{2 * time.Hour, time.Hour, 0.5},    // overestimate: t_r/t_p
		{0, time.Hour, 0},
		{time.Hour, 0, 0},
	}
	for i, c := range cases {
		if got := EA(c.pred, c.actual); got != c.want {
			t.Errorf("case %d: EA = %v, want %v", i, got, c.want)
		}
	}
}

func TestEABounds(t *testing.T) {
	for _, p := range []time.Duration{time.Second, time.Minute, time.Hour, 100 * time.Hour} {
		for _, a := range []time.Duration{time.Second, time.Minute, time.Hour} {
			ea := EA(p, a)
			if ea <= 0 || ea > 1 {
				t.Fatalf("EA(%v,%v) = %v out of (0,1]", p, a, ea)
			}
		}
	}
}

func TestFeaturesShape(t *testing.T) {
	j := &trace.Job{Name: "cfd-v0", User: "user001", Nodes: 64, Cores: 1536,
		Submit: 20 * time.Hour, Runtime: time.Hour, UserEstimate: 2 * time.Hour}
	f := Features(j)
	if len(f) != NumFeatures {
		t.Fatalf("features = %d, want %d", len(f), NumFeatures)
	}
	if f[FeatNodes] != 6 { // log2(64)
		t.Errorf("log2 nodes = %v", f[FeatNodes])
	}
	if f[FeatHour] != 20 {
		t.Errorf("hour = %v", f[FeatHour])
	}
	// Hash dims are signed bits.
	for i := 0; i < nameDims+userDims; i++ {
		if f[i] != 1 && f[i] != -1 {
			t.Fatalf("hash dim %d = %v, want ±1", i, f[i])
		}
	}
	// Same name embeds identically; different users (almost surely) differ
	// somewhere in the user block.
	j2 := *j
	j2.User = "other"
	f2 := Features(&j2)
	for i := 0; i < nameDims; i++ {
		if f2[i] != f[i] {
			t.Fatal("same name, different embedding")
		}
	}
	same := true
	for i := nameDims; i < nameDims+userDims; i++ {
		if f2[i] != f[i] {
			same = false
		}
	}
	if same {
		t.Error("different users collided across all user dims (improbable)")
	}
}

func TestLogSecondsRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{time.Second, time.Minute, 3 * time.Hour, 40 * time.Hour} {
		got := fromLogSeconds(logSeconds(d))
		ratio := float64(got) / float64(d)
		if ratio < 0.999 || ratio > 1.001 {
			t.Errorf("round trip %v -> %v", d, got)
		}
	}
	// Clamps: tiny and absurd values stay sane.
	if fromLogSeconds(-10) < time.Second {
		t.Error("low clamp failed")
	}
	if fromLogSeconds(100) > 40*24*time.Hour {
		t.Error("high clamp failed")
	}
}

func TestUserEstimator(t *testing.T) {
	var u User
	j := &trace.Job{UserEstimate: 2 * time.Hour}
	got, ok := u.Estimate(j)
	if !ok || got != 2*time.Hour {
		t.Error("user estimator must echo the request")
	}
}

func TestLast2(t *testing.T) {
	l := NewLast2()
	j := &trace.Job{User: "a"}
	if _, ok := l.Estimate(j); ok {
		t.Error("cold Last-2 must decline")
	}
	l.Observe(trace.Job{User: "a", Runtime: time.Hour})
	if _, ok := l.Estimate(j); ok {
		t.Error("Last-2 with one sample must decline")
	}
	l.Observe(trace.Job{User: "a", Runtime: 3 * time.Hour})
	got, ok := l.Estimate(j)
	if !ok || got != 2*time.Hour {
		t.Errorf("Last-2 = %v, want 2h", got)
	}
	// Sliding: a third observation evicts the first.
	l.Observe(trace.Job{User: "a", Runtime: 5 * time.Hour})
	got, _ = l.Estimate(j)
	if got != 4*time.Hour {
		t.Errorf("Last-2 after slide = %v, want 4h", got)
	}
	// Different user is independent.
	if _, ok := l.Estimate(&trace.Job{User: "b"}); ok {
		t.Error("Last-2 leaked across users")
	}
}

func TestPREPPerPath(t *testing.T) {
	p := NewPREP()
	if _, ok := p.Estimate(&trace.Job{Name: "x"}); ok {
		t.Error("cold PREP must decline")
	}
	for i := 0; i < 5; i++ {
		p.Observe(trace.Job{Name: "x", Runtime: time.Hour})
	}
	got, ok := p.Estimate(&trace.Job{Name: "x"})
	if !ok {
		t.Fatal("PREP has data but declined")
	}
	ratio := float64(got) / float64(time.Hour)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("PREP = %v, want ~1h", got)
	}
	if _, ok := p.Estimate(&trace.Job{Name: "y"}); ok {
		t.Error("PREP leaked across paths")
	}
}

func TestPREPRingEviction(t *testing.T) {
	p := NewPREP()
	for i := 0; i < prepWindow; i++ {
		p.Observe(trace.Job{Name: "x", Runtime: time.Minute})
	}
	for i := 0; i < prepWindow; i++ {
		p.Observe(trace.Job{Name: "x", Runtime: time.Hour})
	}
	got, _ := p.Estimate(&trace.Job{Name: "x"})
	ratio := float64(got) / float64(time.Hour)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("PREP after eviction = %v, want ~1h", got)
	}
}

func replayTrace(n int) []trace.Job {
	return trace.Generate(trace.NGTianheConfig(n)).Jobs
}

func TestFrameworkLifecycle(t *testing.T) {
	jobs := replayTrace(3000)
	f := NewFramework(FrameworkConfig{})
	// Cold: no prediction.
	if _, ok := f.Estimate(&jobs[0]); ok {
		t.Error("cold framework must decline")
	}
	res := Evaluate(f, jobs)
	if f.Generations < 2 {
		t.Errorf("model generations = %d, want >= 2 over the trace span", f.Generations)
	}
	// The AEA gate withholds low-confidence clusters, so coverage sits
	// well below 1 but the covered predictions are accurate.
	if res.Coverage < 0.2 {
		t.Errorf("coverage = %v", res.Coverage)
	}
	if res.AEA < 0.70 {
		t.Errorf("framework AEA = %.3f, want >= 0.70", res.AEA)
	}
}

func TestFrameworkSlackReducesUnderestimation(t *testing.T) {
	jobs := replayTrace(2500)
	noSlack := Evaluate(NewFramework(FrameworkConfig{Alpha: 1.0}), jobs)
	slack := Evaluate(NewFramework(FrameworkConfig{Alpha: 1.10}), jobs)
	if slack.UnderestimateRate >= noSlack.UnderestimateRate {
		t.Errorf("slack did not reduce UR: %.3f vs %.3f",
			slack.UnderestimateRate, noSlack.UnderestimateRate)
	}
}

func TestFrameworkGateUsesUserEstimateWhenAEALow(t *testing.T) {
	jobs := replayTrace(2000)
	f := NewFramework(FrameworkConfig{AEAGate: 1.01}) // gate can never pass (AEA <= 1)
	for i := range jobs[:1500] {
		f.Predict(&jobs[i])
		f.Complete(&jobs[i])
	}
	j := jobs[1600]
	p := f.Predict(&j)
	if p.UsedModel || p.Used != j.UserEstimate {
		t.Error("with an unpassable gate the user estimate must win")
	}
	// No user estimate: model is adopted regardless of the gate.
	j2 := jobs[1601]
	j2.UserEstimate = 0
	p2 := f.Predict(&j2)
	if !p2.UsedModel || p2.Used != p2.Model {
		t.Error("without a user estimate the model must be adopted")
	}
}

func TestFrameworkRefreshCadence(t *testing.T) {
	jobs := replayTrace(4000)
	f := NewFramework(FrameworkConfig{RefreshEvery: 10 * time.Hour})
	Evaluate(f, jobs)
	// 30 days / 10 h ≈ up to 72 refresh opportunities; expect at least a
	// handful and no runaway regeneration per job.
	if f.Generations < 3 || f.Generations > 100 {
		t.Errorf("generations = %d", f.Generations)
	}
}

func TestFrameworkBeatsUserAndSimpleBaselines(t *testing.T) {
	// The Fig. 11b headline: ESlurm ~84% AEA, ~10% UR; SVM/RF/Last-2 below
	// 70% AEA with UR above 25%; user estimates least accurate.
	jobs := replayTrace(6000)
	framework := Evaluate(NewFramework(FrameworkConfig{}), jobs)
	user := Evaluate(User{}, jobs)
	last2 := Evaluate(NewLast2(), jobs)

	if framework.AEA <= user.AEA {
		t.Errorf("framework AEA %.3f <= user %.3f", framework.AEA, user.AEA)
	}
	if framework.AEA <= last2.AEA {
		t.Errorf("framework AEA %.3f <= Last-2 %.3f", framework.AEA, last2.AEA)
	}
	if framework.AEA < 0.75 {
		t.Errorf("framework AEA = %.3f, want >= 0.75 (paper: 0.84)", framework.AEA)
	}
	if framework.UnderestimateRate > 0.40 {
		t.Errorf("framework UR = %.3f, want low", framework.UnderestimateRate)
	}
	if framework.UnderestimateRate >= last2.UnderestimateRate {
		t.Errorf("framework UR %.3f not below Last-2 UR %.3f",
			framework.UnderestimateRate, last2.UnderestimateRate)
	}
}

func TestEvaluateEmptyTrace(t *testing.T) {
	res := Evaluate(User{}, nil)
	if res.Jobs != 0 || res.AEA != 0 {
		t.Error("empty evaluation must be zero")
	}
}

func TestAllBaselinesRunCleanly(t *testing.T) {
	jobs := replayTrace(1500)
	ests := []Estimator{
		User{}, NewLast2(), NewSVM(), NewRandomForest(1),
		NewIRPA(2), NewTRIP(), NewPREP(), NewFramework(FrameworkConfig{}),
	}
	for _, e := range ests {
		res := Evaluate(e, jobs)
		if res.Coverage > 0 && (res.AEA <= 0 || res.AEA > 1) {
			t.Errorf("%s: AEA = %v out of range", e.Name(), res.AEA)
		}
		if res.UnderestimateRate < 0 || res.UnderestimateRate > 1 {
			t.Errorf("%s: UR = %v", e.Name(), res.UnderestimateRate)
		}
	}
}

func TestClusterStatsObservability(t *testing.T) {
	jobs := replayTrace(2000)
	f := NewFramework(FrameworkConfig{})
	if f.ClusterStats() != nil {
		t.Error("stats before first generation must be nil")
	}
	Evaluate(f, jobs)
	stats := f.ClusterStats()
	if len(stats) == 0 {
		t.Fatal("no cluster stats after training")
	}
	trusted, total := 0, 0
	for _, s := range stats {
		if s.AEA < 0 || s.AEA > 1 {
			t.Fatalf("cluster %d AEA = %v", s.Cluster, s.AEA)
		}
		if s.Trusted {
			trusted++
		}
		total += s.TrainSize
	}
	if trusted == 0 {
		t.Error("no trusted clusters at all")
	}
	if total == 0 {
		t.Error("train sizes all zero")
	}
}

// TestEvaluateSlacksMatchesIndependentReplays is the oracle for the shared
// sweep: one generator feeding nine records must reproduce, field for field
// and bit for bit, nine frameworks that each replay the trace alone.
func TestEvaluateSlacksMatchesIndependentReplays(t *testing.T) {
	jobs := replayTrace(700)
	cfg := FrameworkConfig{K: 40}
	alphas := []float64{1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08}
	got, _ := EvaluateSlacks(cfg, alphas, jobs)
	if len(got) != len(alphas) {
		t.Fatalf("%d results for %d alphas", len(got), len(alphas))
	}
	covered := false
	for i, a := range alphas {
		c := cfg
		c.Alpha = a
		want := Evaluate(NewFramework(c), jobs)
		if got[i] != want {
			t.Errorf("alpha %.2f: shared sweep %+v, independent replay %+v", a, got[i], want)
		}
		covered = covered || want.Coverage > 0
	}
	if !covered {
		t.Error("no replay covered any job: the comparison is vacuous")
	}
}

func TestFrameworkObsCounters(t *testing.T) {
	jobs := replayTrace(1500)
	f := NewFramework(FrameworkConfig{})
	reg := obs.NewRegistry()
	f.SetObs(reg)
	Evaluate(f, jobs)
	gens := reg.Counter("estimate.generations").Value()
	if gens == 0 || gens != int64(f.Generations) {
		t.Errorf("estimate.generations = %d, Generations = %d", gens, f.Generations)
	}
	if n := reg.Counter("estimate.predictions").Value(); n != int64(len(jobs)) {
		t.Errorf("estimate.predictions = %d, want %d", n, len(jobs))
	}
	// Duplicated feature rows with different runtimes are solved one class
	// block at a time, so at most 5% of the cluster fits may run out of
	// sweeps; every generation fits at least once.
	fits := gens * int64(f.Config().K)
	if maxiter := reg.Counter("estimate.svr_maxiter").Value(); maxiter*20 > fits {
		t.Errorf("estimate.svr_maxiter = %d of %d fits (%d generations of %d), want <= 5%%", maxiter, fits, gens, f.Config().K)
	}
	if sweeps := reg.Counter("estimate.svr_sweeps").Value(); sweeps < gens || sweeps > fits*1500 {
		t.Errorf("estimate.svr_sweeps = %d over %d fits of at most 1500 sweeps", sweeps, fits)
	}
	// Every window job goes to exactly one cluster fit, and the same
	// duplication leaves fewer distinct rows than rows.
	rows, distinct := reg.Counter("estimate.svr_rows").Value(), reg.Counter("estimate.svr_distinct_rows").Value()
	if rows < gens*int64(f.Config().MinTrain) || rows > gens*int64(f.Config().InterestWindow) {
		t.Errorf("estimate.svr_rows = %d over %d generations of %d..%d window jobs", rows, gens, f.Config().MinTrain, f.Config().InterestWindow)
	}
	if distinct <= 0 || distinct >= rows {
		t.Errorf("estimate.svr_distinct_rows = %d of %d rows, want fewer (duplicated rows) but some", distinct, rows)
	}
}

// standaloneFig11b builds, row for row, what Fig11bRoster(40) reports:
// the same constructors and seeds, each estimator replaying alone, with
// the SVM row a global SVM of its own instead of IRPA's.
func standaloneFig11b() []Estimator {
	return []Estimator{
		User{}, NewSVM(), NewRandomForest(1), NewLast2(),
		NewIRPA(2), NewTRIP(), NewPREP(), NewFramework(FrameworkConfig{K: 40}),
	}
}

// rowNamed returns the index of the estimator called name: the tests find
// a roster's rows by name, so the roster's order stays free.
func rowNamed(t *testing.T, rows []Estimator, name string) int {
	t.Helper()
	for i, est := range rows {
		if est.Name() == name {
			return i
		}
	}
	t.Fatalf("no row is called %q", name)
	return -1
}

// replayOf returns the index of the replay that holds row.
func replayOf(t *testing.T, replays [][]int, row int) int {
	t.Helper()
	for g, rows := range replays {
		if slices.Contains(rows, row) {
			return g
		}
	}
	t.Fatalf("row %d is in no replay", row)
	return -1
}

// refitCheck rides in IRPA's replay after IRPA. Each time IRPA's SVM
// refits, it fits the SVR the way IRPA did before it shared the SVM's —
// on its own copy of the window, with a fresh scaler — and requires the
// SVM's model to predict exactly that SVR's values on every window row.
type refitCheck struct {
	t      *testing.T
	irpa   *IRPA
	seen   []trace.Job
	last   *mlkit.SVR
	refits int
}

func (*refitCheck) Name() string                              { return "refit check" }
func (*refitCheck) Estimate(*trace.Job) (time.Duration, bool) { return 0, false }

func (c *refitCheck) Observe(j trace.Job) {
	c.seen = append(c.seen, j)
	m := c.irpa.svm.m
	if m == c.last {
		return
	}
	c.last = m
	c.refits++
	window := c.seen[max(0, len(c.seen)-c.irpa.svm.window):]
	raw := make([][]float64, len(window))
	ys := make([]float64, len(window))
	for i := range window {
		raw[i] = Features(&window[i])
		ys[i] = logSeconds(window[i].Runtime)
	}
	xs := mlkit.FitScaler(raw).TransformAll(raw)
	own := mlkit.SVRFit(xs, ys, mlkit.SVRConfig{C: 50, Epsilon: 0.05})
	for i, x := range xs {
		if got, want := m.Predict(x), own.Predict(x); got != want {
			c.t.Errorf("refit %d after %d jobs: window row %d: IRPA's SVR predicts %v, its own refit %v",
				c.refits, len(c.seen), i, got, want)
			return
		}
	}
}

// TestGroupedReplaysMatchStandalone is the differential oracle for the
// grouped replays: every row EvaluateAll reads from the Fig. 11b roster —
// replays side by side, rows of one replay in lockstep, the SVM row
// through IRPA's own SVM — must equal, field for field and bit for bit, a
// standalone Evaluate of a freshly built estimator with the same seed.
// The trace is long enough that every windowed baseline retrains twice
// before its last prediction and the framework refreshes its model, so
// each replay's models carry state from one window into the next. The
// roster's fits are the standalone replays' less the standalone SVM's:
// IRPA's SVR fits are the SVM row's, counted once, and IRPA fits no SVR
// of its own.
func TestGroupedReplaysMatchStandalone(t *testing.T) {
	jobs := replayTrace(900)
	r := Fig11bRoster(40)
	irpa := r.Rows[rowNamed(t, r.Rows, "IRPA")].(*IRPA)
	if r.Rows[rowNamed(t, r.Rows, "SVM")].(shared).Estimator != irpa.svm {
		t.Fatal("the roster's SVM row does not read IRPA's SVM")
	}
	check := &refitCheck{t: t, irpa: irpa}
	g := replayOf(t, r.Replays, rowNamed(t, r.Rows, "IRPA"))
	r.Rows = append(r.Rows, check)
	r.Replays[g] = append(r.Replays[g], len(r.Rows)-1)
	got, work := EvaluateAll(r, jobs)
	if check.refits < 2 {
		t.Errorf("IRPA's SVM refit %d times, want >= 2", check.refits)
	}

	alone := standaloneFig11b()
	if len(got) != len(alone)+1 {
		t.Fatalf("%d results for %d rows", len(got), len(alone)+1)
	}
	var want Work
	for _, est := range alone {
		res := Evaluate(est, jobs)
		if i := rowNamed(t, r.Rows, est.Name()); got[i] != res {
			t.Errorf("%s: grouped %+v, standalone %+v", est.Name(), got[i], res)
		}
		if res.Coverage == 0 {
			t.Errorf("%s covered no job: the comparison is vacuous for it", res.Estimator)
		}
		if f, ok := est.(fitter); ok && est.Name() != "SVM" {
			want.Add(f.fitWork())
		}
	}
	if g := alone[rowNamed(t, alone, frameworkName)].(*Framework).Generations; g < 2 {
		t.Fatalf("framework built %d model generations, want >= 2", g)
	}
	if work != want {
		t.Errorf("roster fits %+v, standalone replays less the SVM %+v", work, want)
	}
	if svm, shared := alone[rowNamed(t, alone, "SVM")].(*SVM).work, irpa.svm.work; svm != shared || svm.Fits < 2 {
		t.Errorf("standalone SVM fits %+v, IRPA's SVM %+v: want the same, >= 2 fits", svm, shared)
	}
	// IRPA fits a forest and a ridge per window and no SVR of its own.
	if w, svr := irpa.fitWork(), irpa.svm.work; w.Fits != 3*svr.Fits || w.SVRSweeps != svr.SVRSweeps {
		t.Errorf("IRPA fits %+v over its SVM's %+v: want 3 fits and the same sweeps per SVR fit", w, svr)
	}
}
