package estimate

import (
	"math/rand"
	"time"

	"eslurm/internal/mlkit"
	"eslurm/internal/obs"
	"eslurm/internal/trace"
)

// FrameworkConfig parameterizes the ESlurm estimation framework. Zero
// values take the paper's defaults.
type FrameworkConfig struct {
	// InterestWindow is the number of most recent completed jobs the model
	// generator trains on (paper default: 700, from the Fig. 5c ID-gap
	// analysis).
	InterestWindow int
	// RefreshEvery is the model regeneration period in trace time (paper
	// default: 15 h, from the Fig. 5b interval analysis; must not exceed
	// 30 h).
	RefreshEvery time.Duration
	// K is the number of job clusters (default 15, the paper's elbow
	// result on its own trace). It is a fixed choice: nothing re-derives
	// it from the data, and the experiments pass K = 40 for the synthetic
	// traces (see experiment.workloadK).
	K int
	// Alpha is the slack variable of Eq. 3 penalizing underestimation
	// (paper default: 1.05, Table VIII).
	Alpha float64
	// AEAGate: the model's estimate replaces a user-supplied one only when
	// the job's cluster has average estimation accuracy above this (paper:
	// 90%).
	AEAGate float64
	// MinTrain is the minimum completed-job count before the first model
	// is built.
	MinTrain int
	// Seed drives clustering initialization.
	Seed int64
}

func (c FrameworkConfig) withDefaults() FrameworkConfig {
	if c.InterestWindow == 0 {
		c.InterestWindow = 700
	}
	if c.RefreshEvery == 0 {
		c.RefreshEvery = 15 * time.Hour
	}
	if c.K == 0 {
		c.K = 15
	}
	if c.Alpha == 0 {
		c.Alpha = 1.05
	}
	if c.AEAGate == 0 {
		c.AEAGate = 0.90
	}
	if c.MinTrain == 0 {
		c.MinTrain = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// clusterWeights emphasize the categorical features when measuring job
// similarity: two jobs are "similar" first by application, then by user,
// then by scale and time of day. Applied after standardization. Rebuilt
// per weightFeatures call (a stack array of 15 constants) rather than
// cached in a package-level var, which would be mutable shared state.
func clusterWeights() [NumFeatures]float64 {
	var w [NumFeatures]float64
	for i := 0; i < nameDims; i++ {
		w[i] = 2.0
	}
	for i := nameDims; i < nameDims+userDims; i++ {
		w[i] = 0.5
	}
	w[FeatNodes] = 2
	w[FeatCores] = 2
	w[FeatHour] = 0.5
	return w
}

func weightFeatures(x []float64) []float64 {
	w := clusterWeights()
	for i := range x {
		x[i] *= w[i]
	}
	return x
}

// model is one generation of the estimation model: a clustering of the
// interest window plus one SVR per cluster. It depends on no record-module
// parameter, so any number of records may share it.
type model struct {
	scaler *mlkit.StandardScaler
	km     *mlkit.KMeans
	svrs   []*mlkit.SVR
	// base is the cluster-mean log-runtime; each SVR regresses the
	// residual from it, so queries with no close neighbours in the
	// training window fall back to the cluster mean instead of an
	// arbitrary far-field value.
	base []float64
	// window holds the model's own un-slacked estimates for the jobs it
	// was trained on; every record seeds its AEA from them.
	window []windowPred
	// unconverged counts the per-cluster SVR fits of this generation that
	// stopped at MaxIter rather than Tol, and sweeps totals their sweeps.
	unconverged, sweeps int
	// svrRows and svrDistinct total the training rows handed to those fits
	// and the bit-distinct rows among them, fit by fit.
	svrRows, svrDistinct int
}

// query is the model's answer for one job: its cluster and the raw
// (un-slacked) runtime estimate. cluster is -1 when no model exists yet.
type query struct {
	cluster int
	raw     time.Duration
}

// windowPred is one interest-window job as the fresh model sees it.
type windowPred struct {
	query
	runtime time.Duration
}

// predict returns the model's raw estimate for a weighted, scaled feature
// vector in the given cluster.
func (m *model) predict(c int, x []float64) time.Duration {
	return fromLogSeconds(m.base[c] + m.svrs[c].Predict(x))
}

// generator is the estimation model generator of Fig. 6: the historical
// job queue, the refresh clock, and the current model generation.
type generator struct {
	cfg FrameworkConfig
	rng *rand.Rand

	// historical job queue (completed jobs, submission order).
	history []trace.Job
	m       *model
	lastGen time.Duration
	started bool
	work    Work
}

func newGenerator(cfg FrameworkConfig) generator {
	return generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// query matches a job to its cluster and runs that cluster's SVR.
func (g *generator) query(j *trace.Job) query {
	if g.m == nil {
		return query{cluster: -1}
	}
	x := weightFeatures(g.m.scaler.Transform(Features(j)))
	c := g.m.km.Nearest(x)
	return query{cluster: c, raw: g.m.predict(c, x)}
}

// observe appends a completed job to the historical queue.
func (g *generator) observe(j *trace.Job) {
	g.history = append(g.history, *j)
	// Bound memory: keep a few windows of history.
	if len(g.history) > 4*g.cfg.InterestWindow {
		g.history = append([]trace.Job(nil), g.history[len(g.history)-2*g.cfg.InterestWindow:]...)
	}
}

// record is the record module of Fig. 6 for one slack value: it turns the
// generator's raw estimate into the slack-adjusted one (Eq. 3), keeps the
// running per-cluster AEA of those estimates (Eqs. 4–5), and applies the
// AEA gate against the user estimate.
type record struct {
	alpha, gate float64
	aeaSum      []float64
	aeaCount    []int
}

func newRecord(cfg FrameworkConfig) record {
	return record{alpha: cfg.Alpha, gate: cfg.AEAGate}
}

// slack implements Eq. 3: multiply by the slack variable to penalize
// underestimation.
func (r *record) slack(raw time.Duration) time.Duration {
	return time.Duration(float64(raw) * r.alpha)
}

// complete folds one finished job into its cluster's AEA, scoring the
// slack-adjusted estimate the model gives it; a no-op before the first
// generation.
func (r *record) complete(q query, runtime time.Duration) {
	if q.cluster < 0 {
		return
	}
	r.aeaSum[q.cluster] += EA(r.slack(q.raw), runtime)
	r.aeaCount[q.cluster]++
}

// reseed starts the AEA state of a new model generation by scoring the
// training window itself, so the gate has data before the first
// completions arrive.
func (r *record) reseed(m *model) {
	r.aeaSum = make([]float64, m.km.K())
	r.aeaCount = make([]int, m.km.K())
	for _, w := range m.window {
		r.complete(w.query, w.runtime)
	}
}

func (r *record) aea(cluster int) float64 {
	if r.aeaCount[cluster] == 0 {
		return 0
	}
	return r.aeaSum[cluster] / float64(r.aeaCount[cluster])
}

// predict is the real-time estimation module's decision for one job.
func (r *record) predict(j *trace.Job, q query) Prediction {
	p := Prediction{Cluster: q.cluster, Used: j.UserEstimate}
	if q.cluster < 0 {
		return p
	}
	p.Model = r.slack(q.raw)
	// "When the user does not submit a runtime estimate, we directly adopt
	// the runtime estimation given by the estimation model."
	if j.UserEstimate <= 0 || r.aea(q.cluster) > r.gate {
		p.Used = p.Model
		p.UsedModel = true
	}
	return p
}

// Prediction is the real-time estimation module's output for one job.
type Prediction struct {
	// Model is the slack-adjusted model estimate (Eq. 3); zero when no
	// model is available yet.
	Model time.Duration
	// Used is the walltime the scheduler should use: the model estimate
	// when the user gave none or the cluster's AEA passes the gate,
	// otherwise the user estimate.
	Used time.Duration
	// UsedModel reports which side Used came from.
	UsedModel bool
	// Cluster is the matched cluster index (-1 when no model).
	Cluster int
}

// estimate is the Estimator view of a prediction: the model's
// slack-adjusted estimate, available once the first model is built and
// only for jobs whose cluster passes the AEA gate — exactly the estimates
// the deployed framework would actually substitute for a user request
// (Section V-B). Low-confidence clusters decline, the way other
// estimators decline during cold start.
func (p Prediction) estimate() (time.Duration, bool) {
	if p.Model == 0 || !p.UsedModel {
		return 0, false
	}
	return p.Model, true
}

// Framework is the ESlurm job-runtime-estimation framework (Fig. 6): one
// model generator feeding one record module.
type Framework struct {
	cfg FrameworkConfig
	gen generator
	rec record

	// Generations counts model rebuilds (for tests/reports).
	Generations int

	// Registry instruments; nil until SetObs is called. obs instruments
	// no-op on nil receivers, so unbound frameworks pay nothing.
	cPredictions, cModelUsed, cGenerations *obs.Counter
	cSVRMaxIter, cSVRSweeps                *obs.Counter
	cSVRRows, cSVRDistinct                 *obs.Counter
}

// NewFramework returns an empty framework; models appear as jobs complete.
func NewFramework(cfg FrameworkConfig) *Framework {
	cfg = cfg.withDefaults()
	return &Framework{cfg: cfg, gen: newGenerator(cfg), rec: newRecord(cfg)}
}

// Config returns the effective configuration.
func (f *Framework) Config() FrameworkConfig { return f.cfg }

// SetObs binds the framework to a metrics registry (typically the driving
// engine's — the framework itself is engine-free). It registers counters
// estimate.predictions, estimate.model_used, estimate.generations,
// estimate.svr_maxiter, estimate.svr_sweeps, estimate.svr_rows and
// estimate.svr_distinct_rows.
func (f *Framework) SetObs(m *obs.Registry) {
	f.cPredictions = m.Counter("estimate.predictions")
	f.cModelUsed = m.Counter("estimate.model_used")
	f.cGenerations = m.Counter("estimate.generations")
	f.cSVRMaxIter = m.Counter("estimate.svr_maxiter")
	f.cSVRSweeps = m.Counter("estimate.svr_sweeps")
	f.cSVRRows = m.Counter("estimate.svr_rows")
	f.cSVRDistinct = m.Counter("estimate.svr_distinct_rows")
}

// frameworkName is the framework's row label in the Fig. 11b comparison.
const frameworkName = "ESlurm"

// Name implements Estimator.
func (f *Framework) Name() string { return frameworkName }

// adopt hands a freshly generated model to the record module.
func (f *Framework) adopt() {
	f.rec.reseed(f.gen.m)
	f.Generations++
	f.cGenerations.Inc()
	f.cSVRMaxIter.Add(int64(f.gen.m.unconverged))
	f.cSVRSweeps.Add(int64(f.gen.m.sweeps))
	f.cSVRRows.Add(int64(f.gen.m.svrRows))
	f.cSVRDistinct.Add(int64(f.gen.m.svrDistinct))
}

// Predict runs the real-time estimation module for a newly submitted job.
func (f *Framework) Predict(j *trace.Job) Prediction {
	f.cPredictions.Inc()
	if f.gen.maybeRefresh(j.Submit) {
		f.adopt()
	}
	p := f.rec.predict(j, f.gen.query(j))
	if p.UsedModel {
		f.cModelUsed.Inc()
	}
	return p
}

// Estimate implements Estimator for the Fig. 11b comparison; see
// Prediction.estimate for which predictions count.
func (f *Framework) Estimate(j *trace.Job) (time.Duration, bool) {
	return f.Predict(j).estimate()
}

// Complete feeds the record module: append to the historical queue, and
// update the job's cluster AEA with the accuracy of the model's estimate
// (Eqs. 4–5).
func (f *Framework) Complete(j *trace.Job) {
	f.rec.complete(f.gen.query(j), j.Runtime)
	f.gen.observe(j)
}

// Observe implements Estimator.
func (f *Framework) Observe(j trace.Job) { f.Complete(&j) }

// Work returns the model fits the framework's generations have made so
// far.
func (f *Framework) Work() Work { return f.gen.work }

func (f *Framework) fitWork() Work { return f.Work() }

// EvaluateSlacks replays a trace once through one model generator and one
// record module per slack value, returning for each α what
// Evaluate(NewFramework(cfg with Alpha: α), jobs) returns, and the fits
// of the one generator. The model generations do not depend on α, so the
// sweep of Table VIII fits each of them once instead of once per α.
func EvaluateSlacks(cfg FrameworkConfig, alphas []float64, jobs []trace.Job) ([]EvalResult, Work) {
	gen := newGenerator(cfg.withDefaults())
	recs := make([]record, len(alphas))
	for i, a := range alphas {
		c := cfg
		c.Alpha = a
		recs[i] = newRecord(c.withDefaults())
	}
	tallies := make([]evalTally, len(alphas))
	for i := range jobs {
		j := &jobs[i]
		fresh := gen.maybeRefresh(j.Submit)
		// Evaluate completes each job right after predicting it, with no
		// refresh in between: one query serves both.
		q := gen.query(j)
		for r := range recs {
			if fresh {
				recs[r].reseed(gen.m)
			}
			if pred, ok := recs[r].predict(j, q).estimate(); ok {
				tallies[r].add(pred, j.Runtime)
			}
			recs[r].complete(q, j.Runtime)
		}
		gen.observe(j)
	}
	out := make([]EvalResult, len(alphas))
	for i := range out {
		out[i] = tallies[i].result(frameworkName, len(jobs))
	}
	return out, gen.work
}

// ClusterStat is one cluster's record-module view (for operator
// observability: which job families the model trusts).
type ClusterStat struct {
	Cluster int
	// AEA is the running average estimation accuracy (Eq. 5).
	AEA float64
	// Samples is the number of completions scored.
	Samples int
	// Trusted reports whether the AEA gate currently passes.
	Trusted bool
	// TrainSize is the cluster's share of the interest window.
	TrainSize int
}

// ClusterStats returns the record module's per-cluster state for the
// current model generation (nil before the first generation).
func (f *Framework) ClusterStats() []ClusterStat {
	if f.gen.m == nil {
		return nil
	}
	out := make([]ClusterStat, f.gen.m.km.K())
	for c := range out {
		out[c] = ClusterStat{
			Cluster:   c,
			AEA:       f.rec.aea(c),
			Samples:   f.rec.aeaCount[c],
			Trusted:   f.rec.aea(c) > f.rec.gate,
			TrainSize: f.gen.m.km.Sizes[c],
		}
	}
	return out
}

// maybeRefresh regenerates the model when the refresh period elapsed (in
// trace time) and enough history exists. It reports whether g.m is a new
// generation, which every record must then be reseeded from.
func (g *generator) maybeRefresh(now time.Duration) bool {
	if len(g.history) < g.cfg.MinTrain {
		return false
	}
	if g.started && now-g.lastGen < g.cfg.RefreshEvery {
		return false
	}
	g.generate()
	g.lastGen = now
	g.started = true
	return true
}

// generate selects the interest window, clusters it, and fits one SVR per
// cluster.
func (g *generator) generate() {
	window := g.history
	if len(window) > g.cfg.InterestWindow {
		window = window[len(window)-g.cfg.InterestWindow:]
	}
	raw := make([][]float64, len(window))
	ys := make([]float64, len(window))
	for i := range window {
		raw[i] = Features(&window[i])
		ys[i] = logSeconds(window[i].Runtime)
	}
	scaler := mlkit.FitScaler(raw)
	xs := scaler.TransformAll(raw)
	for i := range xs {
		weightFeatures(xs[i])
	}

	km := mlkit.KMeansFit(xs, g.cfg.K, 50, g.rng)
	g.work.Fits++
	svrCfg := mlkit.SVRConfig{C: 10, Epsilon: 0.01, MaxIter: 1500, Kernel: mlkit.RBFKernel{Gamma: 0.25}}

	m := &model{
		scaler: scaler,
		km:     km,
		svrs:   make([]*mlkit.SVR, km.K()),
		base:   make([]float64, km.K()),
		window: make([]windowPred, len(window)),
	}
	assign := km.Assign(xs)
	for c := 0; c < km.K(); c++ {
		var cx [][]float64
		var cy []float64
		for i, a := range assign {
			if a == c {
				cx = append(cx, xs[i])
				cy = append(cy, ys[i])
			}
		}
		m.base[c] = mlkit.Mean(cy)
		res := make([]float64, len(cy))
		for i, v := range cy {
			res[i] = v - m.base[c]
		}
		m.svrs[c] = g.work.svr(mlkit.SVRFit(cx, res, svrCfg))
		if !m.svrs[c].Converged() {
			m.unconverged++
		}
		m.sweeps += m.svrs[c].Iterations()
		m.svrRows += len(cx)
		m.svrDistinct += m.svrs[c].DistinctRows()
	}
	for i := range window {
		c := assign[i]
		m.window[i] = windowPred{query{c, m.predict(c, xs[i])}, window[i].Runtime}
	}
	g.m = m
}
