package estimate

import (
	"fmt"
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

// Work counts the model fits an estimator has made: every mlkit fit
// (SVR, forest, k-means, Tobit and ridge), the sweeps its SVR fits ran
// and the Newton steps its Tobit fits took. All are machine-independent,
// so a replay's Work is exact.
type Work struct {
	Fits       int64
	SVRSweeps  int64
	TobitSteps int64
}

// Add adds o's counts to w.
func (w *Work) Add(o Work) {
	w.Fits += o.Fits
	w.SVRSweeps += o.SVRSweeps
	w.TobitSteps += o.TobitSteps
}

// svr counts one SVR fit and returns the model.
func (w *Work) svr(m *mlkit.SVR) *mlkit.SVR {
	w.Fits++
	w.SVRSweeps += int64(m.Iterations())
	return m
}

// tobit counts one Tobit fit and returns the model.
func (w *Work) tobit(m *mlkit.Tobit) *mlkit.Tobit {
	w.Fits++
	w.TobitSteps += int64(m.Iterations())
	return m
}

// A fitter is an estimator that fits models; a row that only reads
// another row's model is not one.
type fitter interface{ fitWork() Work }

// windowed is shared machinery for batch learners: keep a sliding window
// of completed jobs and retrain every RetrainEvery observations.
type windowed struct {
	window  int
	every   int
	pending int
	history []trace.Job
	scaler  *mlkit.StandardScaler
	ready   bool
	work    Work
}

func (w *windowed) fitWork() Work { return w.work }

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
func (s *SVM) Observe(j trace.Job) { s.retrain(j) }

// retrain observes j and, when a retrain is due, refits the SVR and
// returns the scaled training set it was fitted on.
func (s *SVM) retrain(j trace.Job) (xs [][]float64, ys []float64, ok bool) {
	if !s.observe(j) {
		return nil, nil, false
	}
	xs, ys, _ = s.trainSet()
	s.m = s.work.svr(mlkit.SVRFit(xs, ys, mlkit.SVRConfig{C: 50, Epsilon: 0.05}))
	s.ready = true
	return xs, ys, true
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
		r.work.Fits++
		r.ready = true
	}
}

// ---------------------------------------------------------------------------

// IRPA is the integrated-learning baseline (Wu et al.): the average of a
// random forest, an SVR and a Bayesian ridge regressor. Its SVR is the
// global SVM baseline's own — the same window, scaler and SVRConfig — so
// IRPA holds that SVM, feeds it every job, and fits its forest and ridge
// on the SVM's training set.
type IRPA struct {
	svm    *SVM
	forest *mlkit.Forest
	ridge  *mlkit.BayesianRidge
	rng    *rand.Rand
	work   Work // the forest and ridge fits; the SVM counts its own
}

// NewIRPA returns an empty IRPA ensemble.
func NewIRPA(seed int64) *IRPA {
	return &IRPA{svm: NewSVM(), rng: rand.New(rand.NewSource(seed))}
}

// Name implements Estimator.
func (*IRPA) Name() string { return "IRPA" }

// Estimate implements Estimator.
func (p *IRPA) Estimate(j *trace.Job) (time.Duration, bool) {
	s := p.svm
	if !s.ready {
		return 0, false
	}
	x := s.scaler.Transform(Features(j))
	v := (p.forest.Predict(x) + s.m.Predict(x) + p.ridge.Predict(x)) / 3
	return fromLogSeconds(v), true
}

// Observe implements Estimator.
func (p *IRPA) Observe(j trace.Job) {
	if xs, ys, ok := p.svm.retrain(j); ok {
		p.forest = mlkit.ForestFit(xs, ys, mlkit.ForestConfig{Trees: 30}, p.rng)
		p.ridge = mlkit.BayesianRidgeFit(xs, ys, 0)
		p.work.Fits += 2
	}
}

func (p *IRPA) fitWork() Work {
	w := p.work
	w.Add(p.svm.work)
	return w
}

// shared is a row that estimates through a model another row of its
// replay trains: its Observe does nothing, and it is no fitter, so the
// model's fits are counted once, by the row that trains it.
type shared struct{ Estimator }

// Observe is a no-op: the owning row observes.
func (shared) Observe(trace.Job) {}

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
		t.m = t.work.tobit(mlkit.TobitFit(xs, ys, cens, mlkit.TobitConfig{}))
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
	return replay([]Estimator{est}, jobs)[0]
}

// replay runs the trace through ests in lockstep, the way Evaluate runs
// it through one: every estimator estimates a job before any of them
// observes it, so a row that reads another row's model sees the model
// that row estimated with. Results are indexed like ests.
func replay(ests []Estimator, jobs []trace.Job) []EvalResult {
	tallies := make([]evalTally, len(ests))
	for i := range jobs {
		j := jobs[i]
		for k, est := range ests {
			if pred, ok := est.Estimate(&j); ok {
				tallies[k].add(pred, j.Runtime)
			}
		}
		for _, est := range ests {
			est.Observe(j)
		}
	}
	out := make([]EvalResult, len(ests))
	for k, est := range ests {
		out[k] = tallies[k].result(est.Name(), len(jobs))
	}
	return out
}

// A Roster is a set of estimators compared over one trace and the
// replays that run them.
type Roster struct {
	// Rows are the estimators in the order their results are reported.
	Rows []Estimator
	// Replays partitions the indices of Rows: each replay runs its rows
	// in lockstep on one goroutine, and replays are dispatched in the
	// order given.
	Replays [][]int
}

// Fig11bRoster builds the eight estimators of the Fig. 11b comparison,
// with the framework at k clusters. Rows are in the paper's order: User,
// SVM, RandomForest, Last-2, IRPA, TRIP, PREP, ESlurm. The SVM row reads
// IRPA's own SVM, so the two share one replay and one SVR per window.
// Replays go heaviest first — the framework and IRPA with SVM, which two
// workers start at once, then RandomForest, TRIP, and the three
// history-only rows as one — so that RandomForest, TRIP and the history
// rows follow the framework on one worker and end about with IRPA on the
// other.
func Fig11bRoster(k int) Roster {
	irpa := NewIRPA(2)
	return Roster{
		Rows: []Estimator{
			User{}, shared{irpa.svm}, NewRandomForest(1), NewLast2(),
			irpa, NewTRIP(), NewPREP(), NewFramework(FrameworkConfig{K: k}),
		},
		Replays: [][]int{{7}, {4, 1}, {2}, {5}, {0, 3, 6}},
	}
}

// EvaluateAll replays the trace through every row of r, its replays side
// by side on GOMAXPROCS workpool goroutines, and returns the results
// indexed like r.Rows and the fits the rows made, summed in row order.
// A replay shares nothing but the read-only jobs with another (its rows
// own their histories, models and rand.Rand, and each job is handed out
// as a copy), so the results are those of a serial loop at any worker
// count.
func EvaluateAll(r Roster, jobs []trace.Job) ([]EvalResult, Work) {
	seen := make([]int, len(r.Rows))
	for _, g := range r.Replays {
		for _, i := range g {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			panic(fmt.Sprintf("estimate: row %d (%s) is in %d replays, want 1", i, r.Rows[i].Name(), n))
		}
	}
	done := workpool.Ordered(len(r.Replays), 0, func(g int) []EvalResult {
		ests := make([]Estimator, len(r.Replays[g]))
		for k, i := range r.Replays[g] {
			ests[k] = r.Rows[i]
		}
		return replay(ests, jobs)
	}, nil)
	out := make([]EvalResult, len(r.Rows))
	for g, res := range done {
		for k, i := range r.Replays[g] {
			out[i] = res[k]
		}
	}
	var w Work
	for _, est := range r.Rows {
		if f, ok := est.(fitter); ok {
			w.Add(f.fitWork())
		}
	}
	return out, w
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
