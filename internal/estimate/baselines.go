package estimate

import (
	"math"
	"math/rand"
	"time"

	"eslurm/internal/mlkit"
	"eslurm/internal/trace"
	"eslurm/internal/workpool"
)

// Estimator is the common interface of all runtime predictors compared in
// Fig. 11b. Estimate is called at submission; Observe at completion. The
// two calls arrive in trace order.
type Estimator interface {
	Name() string
	// Estimate predicts the job's runtime. ok is false when the estimator
	// has no prediction for this job yet (cold start).
	Estimate(j *trace.Job) (pred time.Duration, ok bool)
	// Observe records a completed job.
	Observe(j trace.Job)
}

// ---------------------------------------------------------------------------

// User replays the user-supplied walltime request — the baseline every RM
// scheduler uses today.
type User struct{}

// Name implements Estimator.
func (User) Name() string { return "User" }

// Estimate returns the user's own walltime request.
func (User) Estimate(j *trace.Job) (time.Duration, bool) { return j.UserEstimate, true }

// Observe is a no-op.
func (User) Observe(trace.Job) {}

// ---------------------------------------------------------------------------

// Last2 predicts the average of the same user's last two actual runtimes
// (Tsafrir et al., the system-generated prediction classically used for
// backfilling).
type Last2 struct {
	hist map[string][]time.Duration
}

// NewLast2 returns an empty Last-2 estimator.
func NewLast2() *Last2 { return &Last2{hist: make(map[string][]time.Duration)} }

// Name implements Estimator.
func (*Last2) Name() string { return "Last-2" }

// Estimate implements Estimator.
func (l *Last2) Estimate(j *trace.Job) (time.Duration, bool) {
	h := l.hist[j.User]
	if len(h) < 2 {
		return 0, false
	}
	return (h[0] + h[1]) / 2, true
}

// Observe implements Estimator.
func (l *Last2) Observe(j trace.Job) {
	h := l.hist[j.User]
	if len(h) < 2 {
		h = append(h, 0)
	}
	copy(h[1:], h[:len(h)-1])
	h[0] = j.Runtime
	l.hist[j.User] = h
}

// ---------------------------------------------------------------------------

// windowed is shared machinery for batch learners: keep a sliding window
// of completed jobs and retrain every RetrainEvery observations.
type windowed struct {
	window  int
	every   int
	pending int
	history []trace.Job
	scaler  *mlkit.StandardScaler
	ready   bool
}

func newWindowed(window, every int) windowed {
	if window == 0 {
		window = 700
	}
	if every == 0 {
		every = 300
	}
	return windowed{window: window, every: every}
}

// observe appends and reports whether a retrain is due.
func (w *windowed) observe(j trace.Job) bool {
	w.history = append(w.history, j)
	if len(w.history) > 2*w.window {
		w.history = append([]trace.Job(nil), w.history[len(w.history)-w.window:]...)
	}
	w.pending++
	if w.pending >= w.every && len(w.history) >= w.every {
		w.pending = 0
		return true
	}
	return false
}

// trainSet returns scaled features and log-runtime targets for the current
// window, fitting a fresh scaler.
func (w *windowed) trainSet() (xs [][]float64, ys []float64, jobs []trace.Job) {
	jobs = w.history
	if len(jobs) > w.window {
		jobs = jobs[len(jobs)-w.window:]
	}
	raw := make([][]float64, len(jobs))
	ys = make([]float64, len(jobs))
	for i := range jobs {
		raw[i] = Features(&jobs[i])
		ys[i] = logSeconds(jobs[i].Runtime)
	}
	w.scaler = mlkit.FitScaler(raw)
	return w.scaler.TransformAll(raw), ys, jobs
}

// ---------------------------------------------------------------------------

// SVM is a single global support-vector regressor over the window — the
// unclustered ablation of the ESlurm framework.
type SVM struct {
	windowed
	m *mlkit.SVR
}

// NewSVM returns an empty global-SVR estimator.
func NewSVM() *SVM { return &SVM{windowed: newWindowed(0, 0)} }

// Name implements Estimator.
func (*SVM) Name() string { return "SVM" }

// Estimate implements Estimator.
func (s *SVM) Estimate(j *trace.Job) (time.Duration, bool) {
	if !s.ready {
		return 0, false
	}
	return fromLogSeconds(s.m.Predict(s.scaler.Transform(Features(j)))), true
}

// Observe implements Estimator.
func (s *SVM) Observe(j trace.Job) {
	if s.observe(j) {
		xs, ys, _ := s.trainSet()
		s.m = mlkit.SVRFit(xs, ys, mlkit.SVRConfig{C: 50, Epsilon: 0.05})
		s.ready = true
	}
}

// ---------------------------------------------------------------------------

// RandomForest is a bagged-tree regressor over the window.
type RandomForest struct {
	windowed
	m   *mlkit.Forest
	rng *rand.Rand
}

// NewRandomForest returns an empty random-forest estimator.
func NewRandomForest(seed int64) *RandomForest {
	return &RandomForest{windowed: newWindowed(0, 0), rng: rand.New(rand.NewSource(seed))}
}

// Name implements Estimator.
func (*RandomForest) Name() string { return "RandomForest" }

// Estimate implements Estimator.
func (r *RandomForest) Estimate(j *trace.Job) (time.Duration, bool) {
	if !r.ready {
		return 0, false
	}
	return fromLogSeconds(r.m.Predict(r.scaler.Transform(Features(j)))), true
}

// Observe implements Estimator.
func (r *RandomForest) Observe(j trace.Job) {
	if r.observe(j) {
		xs, ys, _ := r.trainSet()
		r.m = mlkit.ForestFit(xs, ys, mlkit.ForestConfig{Trees: 30}, r.rng)
		r.ready = true
	}
}

// ---------------------------------------------------------------------------

// IRPA is the integrated-learning baseline (Wu et al.): the average of a
// random forest, an SVR and a Bayesian ridge regressor.
type IRPA struct {
	windowed
	forest *mlkit.Forest
	svr    *mlkit.SVR
	ridge  *mlkit.BayesianRidge
	rng    *rand.Rand
}

// NewIRPA returns an empty IRPA ensemble.
func NewIRPA(seed int64) *IRPA {
	return &IRPA{windowed: newWindowed(0, 0), rng: rand.New(rand.NewSource(seed))}
}

// Name implements Estimator.
func (*IRPA) Name() string { return "IRPA" }

// Estimate implements Estimator.
func (p *IRPA) Estimate(j *trace.Job) (time.Duration, bool) {
	if !p.ready {
		return 0, false
	}
	x := p.scaler.Transform(Features(j))
	v := (p.forest.Predict(x) + p.svr.Predict(x) + p.ridge.Predict(x)) / 3
	return fromLogSeconds(v), true
}

// Observe implements Estimator.
func (p *IRPA) Observe(j trace.Job) {
	if p.observe(j) {
		xs, ys, _ := p.trainSet()
		p.forest = mlkit.ForestFit(xs, ys, mlkit.ForestConfig{Trees: 30}, p.rng)
		p.svr = mlkit.SVRFit(xs, ys, mlkit.SVRConfig{C: 50, Epsilon: 0.05})
		p.ridge = mlkit.BayesianRidgeFit(xs, ys, 0)
		p.ready = true
	}
}

// ---------------------------------------------------------------------------

// TRIP is the Tobit-regression baseline (Fan et al.): runtimes of jobs
// killed at their walltime limit are right-censored observations, and the
// Tobit likelihood recovers the uncensored regression.
type TRIP struct {
	windowed
	m *mlkit.Tobit
}

// NewTRIP returns an empty TRIP estimator.
func NewTRIP() *TRIP { return &TRIP{windowed: newWindowed(0, 0)} }

// Name implements Estimator.
func (*TRIP) Name() string { return "TRIP" }

// Estimate implements Estimator.
func (t *TRIP) Estimate(j *trace.Job) (time.Duration, bool) {
	if !t.ready {
		return 0, false
	}
	return fromLogSeconds(t.m.Predict(t.scaler.Transform(Features(j)))), true
}

// Observe implements Estimator.
func (t *TRIP) Observe(j trace.Job) {
	if t.observe(j) {
		xs, ys, jobs := t.trainSet()
		cens := make([]bool, len(jobs))
		for i := range jobs {
			// A job that ran into its walltime limit was killed there: the
			// recorded runtime is a censored lower bound.
			if jobs[i].UserEstimate > 0 && jobs[i].Runtime >= jobs[i].UserEstimate {
				cens[i] = true
				ys[i] = logSeconds(jobs[i].UserEstimate)
			}
		}
		t.m = mlkit.TobitFit(xs, ys, cens, mlkit.TobitConfig{})
		t.ready = true
	}
}

// ---------------------------------------------------------------------------

// PREP groups jobs by their running path (Zhou et al.) — proxied here by
// the job name, which in production is the submission-script path — and
// keeps a per-path model (running geometric mean of recent runtimes).
type PREP struct {
	paths map[string]*prepPath
}

type prepPath struct {
	logSum []float64 // ring of recent log-runtimes
	next   int
	full   bool
}

const prepWindow = 20

// NewPREP returns an empty PREP estimator.
func NewPREP() *PREP { return &PREP{paths: make(map[string]*prepPath)} }

// Name implements Estimator.
func (*PREP) Name() string { return "PREP" }

// Estimate implements Estimator.
func (p *PREP) Estimate(j *trace.Job) (time.Duration, bool) {
	pp := p.paths[j.Name]
	if pp == nil {
		return 0, false
	}
	n := pp.next
	if pp.full {
		n = prepWindow
	}
	if n == 0 {
		return 0, false
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += pp.logSum[i]
	}
	return fromLogSeconds(s / float64(n)), true
}

// Observe implements Estimator.
func (p *PREP) Observe(j trace.Job) {
	pp := p.paths[j.Name]
	if pp == nil {
		pp = &prepPath{logSum: make([]float64, prepWindow)}
		p.paths[j.Name] = pp
	}
	pp.logSum[pp.next] = logSeconds(j.Runtime)
	pp.next++
	if pp.next == prepWindow {
		pp.next = 0
		pp.full = true
	}
}

// ---------------------------------------------------------------------------

// EvalResult summarizes one estimator's replay over a trace (the Fig. 11b
// metrics).
type EvalResult struct {
	Estimator string
	// AEA is the average estimation accuracy (Eq. 5) over covered jobs.
	AEA float64
	// UnderestimateRate is the fraction of covered jobs with prediction
	// below the actual runtime (UR in Table VIII).
	UnderestimateRate float64
	// Coverage is the fraction of jobs the estimator produced a
	// prediction for (cold starts excluded from AEA/UR).
	Coverage float64
	// Jobs is the number of jobs replayed.
	Jobs int
}

// Evaluate replays a trace through an estimator in submission order:
// predict at submission, observe at completion. Completion is approximated
// as immediate, which matches how the record module sees a steady stream of
// finished jobs.
func Evaluate(est Estimator, jobs []trace.Job) EvalResult {
	var t evalTally
	for i := range jobs {
		j := jobs[i]
		if pred, ok := est.Estimate(&j); ok {
			t.add(pred, j.Runtime)
		}
		est.Observe(j)
	}
	return t.result(est.Name(), len(jobs))
}

// EvaluateAll replays the same trace through every estimator, one
// Evaluate per estimator on GOMAXPROCS workpool goroutines, and returns
// the results in the order of ests. A replay shares nothing but the
// read-only jobs with another (each estimator owns its history, models
// and rand.Rand, and Evaluate hands out copies of the jobs), so the
// results are those of a serial loop at any worker count.
func EvaluateAll(ests []Estimator, jobs []trace.Job) []EvalResult {
	return workpool.Ordered(len(ests), 0, func(i int) EvalResult { return Evaluate(ests[i], jobs) }, nil)
}

// evalTally accumulates the Fig. 11b metrics over the covered jobs of one
// replay.
type evalTally struct {
	covered, under int
	aeaSum         float64
}

// add scores one prediction; non-positive predictions count as uncovered.
func (t *evalTally) add(pred, runtime time.Duration) {
	if pred <= 0 {
		return
	}
	t.covered++
	t.aeaSum += EA(pred, runtime)
	if pred < runtime {
		t.under++
	}
}

func (t *evalTally) result(name string, jobs int) EvalResult {
	res := EvalResult{Estimator: name, Jobs: jobs}
	if t.covered > 0 {
		res.AEA = t.aeaSum / float64(t.covered)
		res.UnderestimateRate = float64(t.under) / float64(t.covered)
		res.Coverage = float64(t.covered) / math.Max(1, float64(jobs))
	}
	return res
}
