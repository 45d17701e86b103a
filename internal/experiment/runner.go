package experiment

// Cross-simulation parallelism. The simnet kernel is single-threaded by
// contract ("parallelism belongs across independent simulations, never
// inside one"); this runner is the sanctioned form of that parallelism:
// each Spec.Run call is an independent simulation tree with its own
// engines and seeds, so workpool.Ordered can execute many of them
// concurrently while the emitted output stays byte-identical to a serial
// run — results are surfaced strictly in registry order.

import (
	"time"

	"eslurm/internal/hostprof"
	"eslurm/internal/simnet"
	"eslurm/internal/workpool"
)

// Result is one experiment's tables plus the harness-side stats
// benchrunner reports on stderr; its -json perf record keeps only the
// exact one, Events.
type Result struct {
	Spec   Spec
	Tables []*Table
	// Wall is host elapsed time for the Spec.Run call (not virtual time),
	// read from a hostprof.Stopwatch.
	Wall time.Duration
	// Events is the number of simulation events executed across every
	// engine the experiment obtained from its Env.
	Events uint64
	// Engines is the Env's engine list in creation order. RunObserved
	// fills it; RunConcurrent leaves it nil so a suite run holds no
	// finished simulation in memory.
	Engines []*simnet.Engine
}

// EventsPerSec returns the experiment's simulation throughput in events
// per host second, the kernel-limited figure of merit for the suite.
func (r Result) EventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Events) / r.Wall.Seconds()
}

// RunConcurrent executes the specs against p on a pool of parallel
// workers (parallel < 1 means GOMAXPROCS). Experiments run concurrently
// in whatever order workers take them, but emit — when non-nil — is
// invoked exactly once per spec, in specs order, from the calling
// goroutine, as soon as the ordered prefix is complete. The returned slice is indexed like
// specs. Output built solely from emit order is therefore byte-identical
// for every parallel setting: the determinism contract across the pool.
func RunConcurrent(specs []Spec, p Params, parallel int, emit func(Result)) []Result {
	return run(specs, p, parallel, false, false, emit)
}

// RunObserved is RunConcurrent for the observability flags: each Result
// keeps its engines (Result.Engines), and with spans set every engine
// records spans from virtual time zero. Recording is passive, so tables
// and event counts match RunConcurrent's, and because each experiment's
// engine list is in creation order, output built from results in specs
// order is byte-identical for every parallel setting too.
func RunObserved(specs []Spec, p Params, parallel int, spans bool, emit func(Result)) []Result {
	return run(specs, p, parallel, true, spans, emit)
}

func run(specs []Spec, p Params, parallel int, keep, spans bool, emit func(Result)) []Result {
	return workpool.Ordered(len(specs), parallel, func(i int) Result { return runOne(specs[i], p, keep, spans) }, emit)
}

// runOne executes a single spec on a fresh Env, timing it and accounting
// the events its engines processed.
func runOne(s Spec, p Params, keep, spans bool) Result {
	env := &Env{spans: spans}
	stop := hostprof.Stopwatch()
	tables := s.Run(env, p)
	wall := stop()
	r := Result{Spec: s, Tables: tables, Wall: wall, Events: env.Events()}
	if keep {
		r.Engines = env.engines
	}
	return r
}
