package experiment

// Cross-simulation parallelism. The simnet kernel is single-threaded by
// contract ("parallelism belongs across independent simulations, never
// inside one"); this runner is the sanctioned form of that parallelism:
// each Spec.Run call is an independent simulation tree with its own
// engines and seeds, so workpool.Ordered can execute many of them
// concurrently while the emitted output stays byte-identical to a serial
// run — results are surfaced strictly in registry order. Inside a
// Spec.Run, a driver's independent rows fan out the same way
// (sideBySide), so a run of N experiments keeps at most N × GOMAXPROCS
// simulations in flight.

import (
	"time"

	"eslurm/internal/hostprof"
	"eslurm/internal/workpool"
)

// Result is one experiment's tables plus the harness-side stats
// benchrunner reports on stderr; its -json perf record keeps only the
// exact ones, Events, Fits and SVRSweeps.
type Result struct {
	Spec   Spec
	Tables []*Table
	// Wall is host elapsed time for the Spec.Run call (not virtual time),
	// read from a hostprof.Stopwatch. A driver's rows run side by side,
	// so Wall is the overlapped time, not the sum of the rows' times, and
	// EventsPerSec counts every row's events against it.
	Wall time.Duration
	// Events is the number of simulation events executed across every
	// engine the experiment obtained from its Env.
	Events uint64
	// Fits counts the model fits of the estimator replays and
	// framework-planned schedules the experiment ran (estimate.Work),
	// SVRSweeps the sweeps of its SVR fits; both are zero for the
	// experiments that fit no model.
	Fits, SVRSweeps int64
	// Engines holds a record of every engine the experiment obtained, in
	// creation order. Records keep what the observability flags read and
	// nothing of the simulations, so a suite run holds no finished
	// simulation in memory.
	Engines []EngineRecord
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
	return run(specs, p, parallel, false, emit)
}

// RunTraced is RunConcurrent with span recording armed on every engine
// from virtual time zero. Recording is passive, so tables and event counts
// match RunConcurrent's, and because each experiment's records are in
// creation order, output built from results in specs order is
// byte-identical for every parallel setting too.
func RunTraced(specs []Spec, p Params, parallel int, emit func(Result)) []Result {
	return run(specs, p, parallel, true, emit)
}

func run(specs []Spec, p Params, parallel int, spans bool, emit func(Result)) []Result {
	return workpool.Ordered(len(specs), parallel, func(i int) Result { return runOne(specs[i], p, spans) }, emit)
}

// runOne executes a single spec on a fresh Env, timing it, releasing the
// engines the driver kept until it returned, and accounting the events
// they processed.
func runOne(s Spec, p Params, spans bool) Result {
	env := &Env{spans: spans}
	stop := hostprof.Stopwatch()
	tables := s.Run(env, p)
	wall := stop()
	env.release()
	r := Result{Spec: s, Tables: tables, Wall: wall, Fits: env.fits, SVRSweeps: env.svrSweeps, Engines: env.engines}
	for _, rec := range r.Engines {
		r.Events += rec.Processed
	}
	return r
}
