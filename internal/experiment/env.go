package experiment

import (
	"eslurm/internal/cluster"
	"eslurm/internal/obs"
	"eslurm/internal/simnet"
	"eslurm/internal/workpool"
)

// Env is the one place an experiment obtains engines: every driver takes
// one and builds its simulations through it, so the runner that handed
// the Env out can afterwards sum the events the experiment executed and —
// for the observability flags — read each engine's spans and metrics.
//
// A row lets go of its simulations when it ends: once a sideBySide row
// returns, and once the driver returns for the engines it obtained
// itself, each engine is reduced to its EngineRecord, and the Env keeps
// only the records. No cluster, pending event or handler stays reachable
// through an Env, so a sweep holds at most the rows in flight, not every
// row it has run. The record list is in creation order, a pure function
// of the driver's code path, which is what keeps trace, metrics and
// critpath files byte-stable at any worker-pool size. An Env is used by
// one goroutine at a time: Spec.Run's for the Env the runner hands out,
// one task's for each child Env sideBySide makes. The parent adopts its
// children's records in task index order, so the list is the one a
// serial loop over the tasks would have built. The zero value is ready to
// use.
type Env struct {
	spans   bool           // arm span recording on every engine as it is obtained
	engines []EngineRecord // one per engine obtained, in creation order
	// fits and svrSweeps count the model fits of the estimator replays
	// and framework-planned schedules run through this Env (countFits),
	// its sideBySide rows' included.
	fits, svrSweeps int64
}

// An EngineRecord is what observers read of one engine once the row that
// built it has ended: its seed, the events it processed, its tracer (nil
// unless spans were armed; frozen, so it no longer reads the engine's
// clock) and its metrics registry. Neither holds a reference back into
// the simulation.
type EngineRecord struct {
	Seed      int64
	Processed uint64
	Tracer    *obs.Tracer
	Metrics   *obs.Registry

	e *simnet.Engine // the live engine, until release
}

// NewEngine returns a fresh engine rooted at seed.
func (env *Env) NewEngine(seed int64) *simnet.Engine {
	e := simnet.NewEngine(seed)
	env.Adopt(e)
	return e
}

// Adopt takes in an engine built below the experiment layer, before it
// has run any event: sched.Run hands its engine over through
// Config.OnEngine.
func (env *Env) Adopt(e *simnet.Engine) {
	if env.spans {
		e.EnableTracing()
	}
	env.engines = append(env.engines, EngineRecord{e: e})
}

// NewCluster builds a cluster on a fresh engine rooted at seed. It is the
// only way an experiment builds a cluster.
func (env *Env) NewCluster(seed int64, cfg cluster.Config) *cluster.Cluster {
	return cluster.New(env.NewEngine(seed), cfg)
}

// release reduces every engine env still holds to its record. The row or
// driver that obtained them has returned, so nothing runs on them again.
func (env *Env) release() {
	for i := range env.engines {
		r := &env.engines[i]
		if e := r.e; e != nil {
			tr := e.Tracer()
			tr.Freeze()
			*r = EngineRecord{Seed: e.Seed(), Processed: e.Processed(), Tracer: tr, Metrics: e.Metrics()}
		}
	}
}

// sideBySide runs a driver's n independent rows — run(0) … run(n-1), each
// building its own clusters on its own seeds — on workpool.Ordered with
// GOMAXPROCS workers, and returns their values in index order. Row i
// obtains its engines from a child Env of its own, armed like env, which
// releases them as soon as the row returns; once every row is done env
// adopts the children's records and fit counts in index order, so event
// counts, traces, metrics, critpath reports and fits match the serial
// loop's. run must touch nothing another row touches, and its value
// should hold what the driver prints, not the row's clusters.
func sideBySide[T any](env *Env, n int, run func(i int, env *Env) T) []T {
	kids := make([]*Env, n)
	for i := range kids {
		kids[i] = &Env{spans: env.spans}
	}
	out := workpool.Ordered(n, 0, func(i int) T {
		v := run(i, kids[i])
		kids[i].release()
		return v
	}, nil)
	for _, kid := range kids {
		env.engines = append(env.engines, kid.engines...)
		env.fits += kid.fits
		env.svrSweeps += kid.svrSweeps
	}
	return out
}
