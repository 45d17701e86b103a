package experiment

// Cross-simulation parallelism. The simnet kernel is single-threaded by
// contract ("parallelism belongs across independent simulations, never
// inside one"); this runner is the sanctioned form of that parallelism:
// each Spec.Run call is an independent simulation tree with its own
// engines and seeds, so a worker pool can execute many of them
// concurrently while the emitted output stays byte-identical to a serial
// run — results are surfaced strictly in registry order.

import (
	"runtime"
	"sync"
	"time"

	"eslurm/internal/simnet"
)

// Result is one experiment's tables plus the harness-side stats
// benchrunner reports on stderr; its -json perf record keeps only the
// exact ones, Events and Sharded.
type Result struct {
	Spec   Spec
	Tables []*Table
	// Wall is host elapsed time for the Spec.Run call (not virtual time).
	Wall time.Duration
	// Events is the number of simulation events executed across every
	// engine the experiment obtained from its Env.
	Events uint64
	// Sharded reports whether the experiment built a cluster of more than
	// one cell (Env.NewCluster under Params.Shards).
	Sharded bool
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
// in work-stealing order, but emit — when non-nil — is invoked exactly
// once per spec, in specs order, from the calling goroutine, as soon as
// the ordered prefix is complete. The returned slice is indexed like
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
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(specs) {
		parallel = len(specs)
	}
	results := make([]Result, len(specs))
	done := make([]chan struct{}, len(specs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	work := make(chan int, len(specs))
	for i := range specs {
		work <- i
	}
	close(work)

	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		//eslurmlint:ignore gosim worker pool over independent engines; no simulated state crosses goroutines
		go func() {
			defer wg.Done()
			for i := range work {
				//eslurmlint:ignore engineown hands a finished experiment's engines back to the caller: the worker never touches them again, and close(done[i]) orders this write before the caller's read
				results[i] = runOne(specs[i], p, keep, spans)
				close(done[i])
			}
		}()
	}
	for i := range specs {
		<-done[i]
		if emit != nil {
			emit(results[i])
		}
	}
	wg.Wait()
	return results
}

// runOne executes a single spec on a fresh Env, timing it and accounting
// the events its engines processed.
func runOne(s Spec, p Params, keep, spans bool) Result {
	env := &Env{spans: spans, cells: p.Shards != 0}
	//eslurmlint:ignore walltime benchmark harness measures host elapsed time, not simulated time
	start := time.Now()
	tables := s.Run(env, p)
	//eslurmlint:ignore walltime benchmark harness measures host elapsed time, not simulated time
	wall := time.Since(start)
	r := Result{Spec: s, Tables: tables, Wall: wall, Events: env.Events(), Sharded: env.sharded}
	if keep {
		r.Engines = env.engines
	}
	return r
}
