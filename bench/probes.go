package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"eslurm/internal/chaos"
	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/fptree"
	"eslurm/internal/mlkit"
	"eslurm/internal/obs"
	"eslurm/internal/predict"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/trace"
)

// Layer probes. Each calls one layer's public functions on an input made
// from the benchmark seed, with a host-time span around every call, and
// reports the layer's cost per unit of its own work. They are stacked:
// cluster.send_ns contains the kernel's step cost times
// cluster.events_per_msg, the comm probes contain cluster sends times
// comm.msgs_per_target, core contains comm, and so on, so a layer's own
// cost is its probe minus the layer beneath times the counted operations.
// The probe suite is the same in every traced pass, whatever the workload.

// probeSizes fixes the probes' input sizes.
type probeSizes struct {
	simnetEvents int // self-rescheduling no-op events
	bigNodes     int // compute nodes of the full-scale probes (cluster build, fptree, core)
	bigSats      int
	coreBcasts   int
	sends        int // Net.Send calls
	commNodes    int // cluster and broadcast size of the wire and comm probes
	traceJobs    int // generated trace, replayed by sched
	schedEstJobs int // sched replay with the estimation framework
	evalJobs     int // estimator replays
	predicts     int // steady-state Predict calls
	mlRows       int // synthetic regression rows, 8 features
	soakNodes    int // traced-vs-untraced chaos seed
	reps         int // repetitions of the millisecond-sized probes; the median is reported
}

func fullProbeSizes() probeSizes {
	return probeSizes{
		simnetEvents: 2_000_000,
		bigNodes:     20480, bigSats: 20, coreBcasts: 20,
		sends: 200_000, commNodes: 4096,
		traceJobs: 20000, schedEstJobs: 3000, evalJobs: 1500, predicts: 10000,
		mlRows: 400, soakNodes: 2048, reps: 5,
	}
}

func toyProbeSizes() probeSizes {
	return probeSizes{
		simnetEvents: 20000,
		bigNodes:     256, bigSats: 4, coreBcasts: 2,
		sends: 2000, commNodes: 256,
		traceJobs: 200, schedEstJobs: 100, evalJobs: 100, predicts: 200,
		mlRows: 60, soakNodes: 256, reps: 1,
	}
}

// prober carries one traced pass's probe state.
type prober struct {
	sz   probeSizes
	seed int64
	rec  *recorder
	root int
	// out receives the per-layer metrics; ops one checked op per probe.
	out map[string]float64
	ops []opResult
}

// timed runs fn under a span named name and returns its host duration.
func (p *prober) timed(name string, parent int, fn func()) time.Duration {
	sp := p.rec.start(name, parent)
	fn()
	return p.rec.end(sp)
}

// medianOf runs fn reps times under parent and returns the median duration.
func (p *prober) medianOf(name string, parent int, fn func()) time.Duration {
	ds := make([]float64, p.sz.reps)
	for i := range ds {
		ds[i] = float64(p.timed(name, parent, fn))
	}
	return time.Duration(median(ds))
}

// probe runs one probe as a checked op: fn returns an error when the
// layer's output is wrong.
func (p *prober) probe(name string, fn func(span int) error) {
	p.rec.setIter("probe/" + name)
	sp := p.rec.start("probe."+name, p.root)
	err := fn(sp)
	p.rec.end(sp)
	op := opResult{ID: "probe/" + name}
	if err != nil {
		op.Err = err.Error()
	}
	p.ops = append(p.ops, op)
}

func per(d time.Duration, unit time.Duration, n int) float64 {
	return float64(d) / float64(unit) / float64(n)
}

// runProbes runs the whole suite.
func runProbes(sz probeSizes, seed int64, rec *recorder) (map[string]float64, []opResult) {
	p := &prober{sz: sz, seed: seed, rec: rec, out: map[string]float64{}}
	rec.setIter("probes")
	p.root = rec.start("probes", 0)
	p.probe("simnet", p.simnet)
	p.probe("cluster", p.cluster)
	p.probe("comm", p.comm)
	p.probe("fptree", p.fptree)
	p.probe("core", p.core)
	p.probe("sched", p.sched)
	p.probe("estimate", p.estimate)
	p.probe("mlkit", p.mlkit)
	p.probe("obs", p.obs)
	rec.end(p.root)
	return p.out, p.ops
}

// simnet: the kernel's schedule-and-fire round trip against a backlog of
// 1024 live timers, each re-arming itself until the event budget is spent.
func (p *prober) simnet(span int) error {
	const live = 1024
	e := simnet.NewEngine(p.seed)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired <= p.sz.simnetEvents-live {
			e.After(live*time.Millisecond, tick)
		}
	}
	for i := 0; i < live; i++ {
		e.After(time.Duration(i)*time.Millisecond, tick)
	}
	d := p.timed("simnet.Engine.Run", span, e.Run)
	if e.Processed() != uint64(fired) || fired < p.sz.simnetEvents {
		return fmt.Errorf("simnet: processed %d events, fired %d, want %d", e.Processed(), fired, p.sz.simnetEvents)
	}
	p.out["simnet.step_ns"] = per(d, time.Nanosecond, fired)
	return nil
}

// cluster: building a full-scale cluster, and the wire — random
// compute-to-compute sends in batches of one per node, drained by the
// engine.
func (p *prober) cluster(span int) error {
	nodes := p.sz.bigNodes + p.sz.bigSats
	d := p.medianOf("cluster.New", span, func() {
		cluster.New(simnet.NewEngine(p.seed), cluster.Config{Computes: p.sz.bigNodes, Satellites: p.sz.bigSats})
	})
	p.out["cluster.build_us_per_node"] = per(d, time.Microsecond, nodes)

	e := simnet.NewEngine(p.seed)
	c := cluster.New(e, cluster.Config{Computes: p.sz.commNodes, Satellites: 1})
	ids := c.Computes()
	rng := rand.New(rand.NewSource(p.seed))
	delivered := 0
	onDelivered := func() { delivered++ }
	d = p.timed("cluster.Network.Send", span, func() {
		for sent := 0; sent < p.sz.sends; {
			for i := 0; i < len(ids) && sent < p.sz.sends; i++ {
				c.Net.Send(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], 1024, onDelivered, nil)
				sent++
			}
			e.Run()
		}
	})
	if delivered != p.sz.sends {
		return fmt.Errorf("cluster: %d of %d sends delivered on a healthy network", delivered, p.sz.sends)
	}
	p.out["cluster.send_ns"] = per(d, time.Nanosecond, p.sz.sends)
	p.out["cluster.events_per_msg"] = float64(e.Processed()) / float64(p.sz.sends)
	return nil
}

// comm: one broadcast from the satellite to every compute node through
// each structure, on a clean cluster and with a seeded 10% of the targets
// failed (the FP-Tree is told which, as in fig8b).
func (p *prober) comm(span int) error {
	n := p.sz.commNodes
	var messages, targets float64
	for _, fail := range []bool{false, true} {
		for _, v := range []struct {
			name string
			s    comm.Structure
		}{{"star", comm.Star{}}, {"ktree", comm.KTree{}}, {"fptree", comm.FPTree{}}} {
			suffix := ""
			if fail {
				suffix = "_fail10"
			}
			name := "comm." + v.name + suffix
			var res comm.Result
			var failed int
			var e *simnet.Engine
			ds := make([]float64, p.sz.reps)
			for rep := range ds {
				e = simnet.NewEngine(p.seed)
				c := cluster.New(e, cluster.Config{Computes: n, Satellites: 1})
				s := v.s
				if fail {
					down := predict.Static{}
					comps := c.Computes()
					for _, i := range rand.New(rand.NewSource(p.seed)).Perm(n)[:n/10] {
						c.Fail(comps[i])
						down[comps[i]] = true
					}
					failed = len(down)
					if fp, ok := s.(comm.FPTree); ok {
						fp.Predictor = down
						s = fp
					}
				}
				ds[rep] = float64(p.timed(name, span, func() {
					b := comm.NewBroadcaster(c)
					s.Broadcast(b, c.Satellites()[0], c.Computes(), 4096, func(r comm.Result) { res = r })
					e.Run()
				}))
			}
			d := time.Duration(median(ds))
			if res.Delivered != n-failed || len(res.Unreachable) != failed {
				return fmt.Errorf("%s: delivered %d, unreachable %d, want %d and %d", name, res.Delivered, len(res.Unreachable), n-failed, failed)
			}
			messages += float64(e.Metrics().Counter("comm.messages").Value())
			targets += float64(n)
			p.out["comm."+v.name+"_ns_per_target"+suffix] = per(d, time.Nanosecond, n)
		}
	}
	p.out["comm.msgs_per_target"] = messages / targets
	return nil
}

// fptree: rearranging a full-scale node list around a 2% prediction set
// and building the tree.
func (p *prober) fptree(span int) error {
	n := p.sz.bigNodes
	list := make([]int, n)
	for i := range list {
		list[i] = i
	}
	bad := make(map[int]bool, n/50)
	for _, i := range rand.New(rand.NewSource(p.seed)).Perm(n)[:n/50] {
		bad[i] = true
	}
	var t *fptree.Tree[int]
	d := p.medianOf("fptree.Rearrange+Build", span, func() {
		t = fptree.Build(fptree.Rearrange(list, func(i int) bool { return bad[i] }, fptree.DefaultWidth), fptree.DefaultWidth)
	})
	if t.Size() != n {
		return fmt.Errorf("fptree: tree holds %d of %d nodes", t.Size(), n)
	}
	p.out["fptree.build_ns_per_node"] = per(d, time.Nanosecond, n)
	return nil
}

// core: full-cluster broadcasts through the master and its satellite pool.
func (p *prober) core(span int) error {
	e := simnet.NewEngine(p.seed)
	c := cluster.New(e, cluster.Config{Computes: p.sz.bigNodes, Satellites: p.sz.bigSats})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	m.Start()
	e.RunUntil(2 * time.Second)
	delivered := 0
	var total time.Duration
	for i := 0; i < p.sz.coreBcasts; i++ {
		total += p.timed("core.Master.Broadcast", span, func() {
			m.Broadcast(c.Computes(), 4096, func(r comm.Result) { delivered += r.Delivered })
			e.RunUntil(e.Now() + time.Minute)
		})
	}
	m.Stop()
	if want := p.sz.coreBcasts * p.sz.bigNodes; delivered != want {
		return fmt.Errorf("core: delivered %d of %d", delivered, want)
	}
	p.out["core.bcast_ns_per_target"] = per(total, time.Nanosecond, p.sz.coreBcasts*p.sz.bigNodes)
	p.out["core.subtasks"] = float64(m.Stats().SubTasks)
	return nil
}

// sched: generating a Tianhe-2A trace, replaying it through EASY
// backfill with the users' walltimes, and replaying a prefix with the
// estimation framework supplying them.
func (p *prober) sched(span int) error {
	cfg := trace.Tianhe2AConfig(p.sz.traceJobs)
	cfg.Seed += p.seed
	var tr *trace.Trace
	d := p.timed("trace.Generate", span, func() { tr = trace.Generate(cfg) })
	if err := tr.Validate(); err != nil || len(tr.Jobs) != p.sz.traceJobs {
		return fmt.Errorf("trace: %d jobs, validate: %v", len(tr.Jobs), err)
	}
	p.out["trace.generate_us_per_job"] = per(d, time.Microsecond, len(tr.Jobs))

	var res sched.Result
	d = p.timed("sched.Run", span, func() {
		res = sched.Run(tr.Jobs, sched.Config{Nodes: 4096, Policy: sched.Backfill})
	})
	if res.Completed != len(tr.Jobs) {
		return fmt.Errorf("sched: completed %d of %d jobs", res.Completed, len(tr.Jobs))
	}
	p.out["sched.replay_us_per_job"] = per(d, time.Microsecond, len(tr.Jobs))

	jobs := tr.Jobs[:p.sz.schedEstJobs]
	f := estimate.NewFramework(estimate.FrameworkConfig{})
	d = p.timed("sched.Run+estimate.Framework", span, func() {
		res = sched.Run(jobs, sched.Config{Nodes: 4096, Policy: sched.Backfill, Predictor: sched.FrameworkWalltimes{F: f}})
	})
	if res.Completed != len(jobs) {
		return fmt.Errorf("sched with estimator: completed %d of %d jobs", res.Completed, len(jobs))
	}
	p.out["sched.with_estimator_us_per_job"] = per(d, time.Microsecond, len(jobs))
	return nil
}

// estimate: replaying an NG-Tianhe trace through the framework and three
// baselines, then the framework's steady-state prediction latency.
func (p *prober) estimate(span int) error {
	cfg := trace.NGTianheConfig(p.sz.evalJobs)
	cfg.Seed += p.seed
	jobs := trace.Generate(cfg).Jobs

	reg := obs.NewRegistry()
	f := estimate.NewFramework(estimate.FrameworkConfig{})
	f.SetObs(reg)
	for _, v := range []struct {
		name string
		est  estimate.Estimator
	}{
		{"framework", f},
		{"irpa", estimate.NewIRPA(p.seed)},
		{"svm", estimate.NewSVM()},
		{"rf", estimate.NewRandomForest(p.seed)},
	} {
		var res estimate.EvalResult
		d := p.timed("estimate.Evaluate/"+v.name, span, func() { res = estimate.Evaluate(v.est, jobs) })
		if res.Jobs != len(jobs) || math.IsNaN(res.AEA) || res.AEA < 0 || res.AEA > 1 {
			return fmt.Errorf("estimate %s: %d jobs replayed, AEA %v", v.name, res.Jobs, res.AEA)
		}
		p.out["estimate."+v.name+"_us_per_job"] = per(d, time.Microsecond, len(jobs))
	}
	p.out["estimate.generations"] = float64(reg.Counter("estimate.generations").Value())
	p.out["estimate.model_used_share"] = float64(reg.Counter("estimate.model_used").Value()) /
		float64(reg.Counter("estimate.predictions").Value())

	// Steady state: every submission falls inside the last model's refresh
	// period, so no call regenerates it.
	last := jobs[len(jobs)-1].Submit
	lat := make([]float64, p.sz.predicts)
	sp := p.rec.start("estimate.Framework.Predict", span)
	for i := range lat {
		j := jobs[len(jobs)-1-i%(len(jobs)/2)]
		j.Submit = last
		t0 := time.Now()
		f.Predict(&j)
		lat[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	p.rec.end(sp)
	p.out["estimate.predict_us_p50"] = quantile(lat, 0.50)
	p.out["estimate.predict_us_p99"] = quantile(lat, 0.99)
	return nil
}

// mlkit: one fit of each model on seeded synthetic data, 8 features, a
// smooth non-linear target with noise.
func (p *prober) mlkit(span int) error {
	rng := rand.New(rand.NewSource(p.seed))
	xs := make([][]float64, p.sz.mlRows)
	ys := make([]float64, len(xs))
	censored := make([]bool, len(xs))
	for i := range xs {
		row := make([]float64, 8)
		for k := range row {
			row[k] = rng.NormFloat64()
		}
		xs[i] = row
		ys[i] = 2*row[0] - row[1] + row[2]*row[3] + 0.1*rng.NormFloat64()
		censored[i] = i%10 == 0
	}
	ms := func(d time.Duration) float64 { return per(d, time.Millisecond, 1) }
	inRange := func(name string, v float64) error {
		if math.IsNaN(v) || v < -100 || v > 100 {
			return fmt.Errorf("mlkit %s: prediction %v on a unit-scale target", name, v)
		}
		return nil
	}

	var svr *mlkit.SVR
	p.out["mlkit.svr_fit_ms"] = ms(p.medianOf("mlkit.SVRFit", span, func() { svr = mlkit.SVRFit(xs, ys, mlkit.SVRConfig{}) }))
	p.out["mlkit.svr_iters"] = float64(svr.Iterations())
	var km *mlkit.KMeans
	p.out["mlkit.kmeans_fit_ms"] = ms(p.medianOf("mlkit.KMeansFit", span, func() {
		km = mlkit.KMeansFit(xs, 15, 0, rand.New(rand.NewSource(p.seed)))
	}))
	var forest *mlkit.Forest
	p.out["mlkit.forest_fit_ms"] = ms(p.medianOf("mlkit.ForestFit", span, func() {
		forest = mlkit.ForestFit(xs, ys, mlkit.ForestConfig{}, rand.New(rand.NewSource(p.seed)))
	}))
	var tobit *mlkit.Tobit
	p.out["mlkit.tobit_fit_ms"] = ms(p.medianOf("mlkit.TobitFit", span, func() { tobit = mlkit.TobitFit(xs, ys, censored, mlkit.TobitConfig{}) }))
	var bayes *mlkit.BayesianRidge
	p.out["mlkit.bayes_fit_ms"] = ms(p.medianOf("mlkit.BayesianRidgeFit", span, func() { bayes = mlkit.BayesianRidgeFit(xs, ys, 0) }))

	if km.K() == 0 {
		return fmt.Errorf("mlkit kmeans: no centroids")
	}
	for _, m := range []struct {
		name string
		v    float64
	}{{"svr", svr.Predict(xs[0])}, {"forest", forest.Predict(xs[0])}, {"tobit", tobit.Predict(xs[0])}, {"bayes", bayes.Predict(xs[0])}} {
		if err := inRange(m.name, m.v); err != nil {
			return err
		}
	}
	return nil
}

// obs: what simulated-time span recording costs one chaos seed, and the
// critical-path analysis over the spans it leaves.
func (p *prober) obs(span int) error {
	cfg := chaos.DefaultConfig()
	cfg.Computes = p.sz.soakNodes
	seed := 1000*p.seed + 1
	var plain, traced chaos.SeedResult
	off := p.medianOf("chaos.RunSeed", span, func() { plain = chaos.RunSeed(cfg, seed) })
	cfg.Trace = true
	on := p.medianOf("chaos.RunSeed/traced", span, func() { traced = chaos.RunSeed(cfg, seed) })
	if plain.Events != traced.Events || len(plain.Violations)+len(traced.Violations) > 0 {
		return fmt.Errorf("obs: tracing changed the seed (%d vs %d events) or it violated an invariant", plain.Events, traced.Events)
	}
	p.out["obs.sim_trace_overhead_share"] = float64(on-off) / float64(off)

	rep := &chaos.Report{Config: cfg, Seeds: []chaos.SeedResult{traced}}
	roots := 0
	d := p.medianOf("chaos.Report.CritpathReport", span, func() { roots = len(rep.CritpathReport(10).Groups) })
	if roots == 0 {
		return fmt.Errorf("critpath: no groups from %d spans", traced.Trace.Len())
	}
	p.out["critpath.analyze_ms"] = per(d, time.Millisecond, 1)
	return nil
}
