package experiment

import "eslurm/internal/simnet"

// Env is the one place an experiment obtains engines: every driver takes
// one and builds its simulations through it, so the runner that handed
// the Env out can afterwards sum the events the experiment executed and —
// for the observability flags — read each engine's spans and metrics. The
// engine list is in creation order, a pure function of the driver's code
// path, which is what keeps trace, metrics and critpath files byte-stable
// at any worker-pool size. An Env belongs to one Spec.Run call on one
// goroutine. The zero value is ready to use.
type Env struct {
	spans   bool // arm span recording on every engine as it is obtained
	sharded bool
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

// AdoptGroup takes in every cell of a shard group, in cell order, and
// records that the experiment ran on the sharded kernel.
func (env *Env) AdoptGroup(g *simnet.ShardGroup) {
	env.sharded = true
	for i := 0; i < g.Cells(); i++ {
		env.Adopt(g.Cell(i))
	}
}

// Events sums the events executed across the Env's engines.
func (env *Env) Events() uint64 {
	var n uint64
	for _, e := range env.engines {
		n += e.Processed()
	}
	return n
}
