package experiment

import (
	"eslurm/internal/cluster"
	"eslurm/internal/simnet"
	"eslurm/internal/workpool"
)

// Env is the one place an experiment obtains engines: every driver takes
// one and builds its simulations through it, so the runner that handed
// the Env out can afterwards sum the events the experiment executed and —
// for the observability flags — read each engine's spans and metrics. The
// engine list is in creation order, a pure function of the driver's code
// path, which is what keeps trace, metrics and critpath files byte-stable
// at any worker-pool size. An Env is used by one goroutine at a time:
// Spec.Run's for the Env the runner hands out, one task's for each child
// Env sideBySide makes. The parent adopts its children's engines in task
// index order, so the list is the one a serial loop over the tasks would
// have built. The zero value is ready to use.
type Env struct {
	spans   bool // arm span recording on every engine as it is obtained
	engines []*simnet.Engine
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
	env.engines = append(env.engines, e)
}

// NewCluster builds a cluster on a fresh engine rooted at seed. It is the
// only way an experiment builds a cluster.
func (env *Env) NewCluster(seed int64, cfg cluster.Config) *cluster.Cluster {
	return cluster.New(env.NewEngine(seed), cfg)
}

// Events sums the events executed across the Env's engines.
func (env *Env) Events() uint64 {
	var n uint64
	for _, e := range env.engines {
		n += e.Processed()
	}
	return n
}

// sideBySide runs a driver's n independent rows — run(0) … run(n-1), each
// building its own clusters on its own seeds — on workpool.Ordered with
// GOMAXPROCS workers, and returns their values in index order. Row i
// obtains its engines from a child Env of its own, armed like env; once
// every row is done env adopts the children's engines in index order, so
// Events, traces, metrics and critpath reports match the serial loop's.
// run must touch nothing another row touches.
func sideBySide[T any](env *Env, n int, run func(i int, env *Env) T) []T {
	kids := make([]*Env, n)
	for i := range kids {
		kids[i] = &Env{spans: env.spans}
	}
	out := workpool.Ordered(n, 0, func(i int) T { return run(i, kids[i]) }, nil)
	for _, kid := range kids {
		env.engines = append(env.engines, kid.engines...)
	}
	return out
}
