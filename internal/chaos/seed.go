package chaos

// The seed harness both soaks share: one stack built, driven and torn
// down the same way, so every invariant is written once. The plain soak
// and the reconcile soak differ only in what they add between the build
// and the teardown (a reconciler, a spec schedule, a convergence wait).

import (
	"fmt"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/faults"
	"eslurm/internal/monitor"
	"eslurm/internal/simnet"
)

// soakRetry is the broadcaster retry policy both soaks run under: 4
// attempts, 50ms base backoff doubling to a 2s cap, 0.5 jitter, 30s
// deadline — so the adversarial retry path is exercised.
func soakRetry() comm.RetryPolicy {
	return comm.RetryPolicy{
		MaxAttempts: 4,
		Backoff:     50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		JitterFrac:  0.5,
		Deadline:    30 * time.Second,
	}
}

// seedRun is one seed's stack: cluster, monitor and started master, the
// master's post-start meter baseline, the driven broadcasts' tallies and
// the violations found so far.
type seedRun struct {
	seed int64
	e    *simnet.Engine
	c    *cluster.Cluster
	mon  *monitor.Subsystem
	m    *core.Master

	broadcasts, delivered, unreachable, retries int
	violations                                  []string
	count                                       []int32 // checkPartition's scratch

	baseVMem, baseRSS int64
	baseSockets       int
}

// newSeedRun builds and starts the stack on ccfg. trace arms span
// recording; a positive faultTimeout overrides the pool's
// FAULT→DOWN demotion timeout.
func newSeedRun(seed int64, ccfg cluster.Config, trace bool, faultTimeout time.Duration) *seedRun {
	e := simnet.NewEngine(seed)
	c := cluster.New(e, ccfg)
	if trace {
		e.EnableTracing()
	}
	r := &seedRun{seed: seed, e: e, c: c, mon: monitor.New(c, monitor.Config{})}
	r.m = core.NewMaster(c, core.DefaultConfig(), nil)
	r.m.B.RecordResolved = true
	r.m.B.Retry = soakRetry()
	if faultTimeout > 0 {
		r.m.Pool.FaultTimeout = faultTimeout
	}
	r.mon.ObservePool(r.m.Pool)

	// Invariant 2: a delivery must never land on a node that is down at
	// the resolution instant. OnResolve fires once per (broadcast,
	// target) chain, duplicates already deduplicated.
	r.m.B.OnResolve = func(to cluster.NodeID, ok bool) {
		if ok && c.Node(to).Failed() {
			r.violate("seed %d: delivered to down node %d at %v", seed, to, e.Now())
		}
	}

	r.m.Start()

	// Meters baseline (invariant 5) — taken after Start's synchronous
	// base charges, before any event runs.
	mm := r.m.Meter()
	r.baseVMem, r.baseRSS, r.baseSockets = mm.VMem(), mm.RSS(), mm.Sockets()
	return r
}

// violate records one violation; a seed keeps at most 64.
func (r *seedRun) violate(format string, args ...interface{}) {
	if len(r.violations) < 64 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// campaign injects the seeded fault campaign and returns its event count
// and the virtual time its last fault heals.
func (r *seedRun) campaign(spec faults.ChaosSpec, silent float64) (events int, lastHeal time.Duration) {
	cp := faults.New(r.c, r.mon, silent)
	cp.Generate(spec)
	for _, ev := range cp.Events {
		lastHeal = max(lastHeal, ev.At+ev.Down)
	}
	return len(cp.Events), lastHeal
}

// drive schedules n full-cluster broadcasts spread evenly over span and
// checks invariants 1, 3 and 4 on each result.
func (r *seedRun) drive(n int, span, bound time.Duration) {
	targets := r.c.Computes()
	for i := 0; i < n; i++ {
		at := span * time.Duration(i+1) / time.Duration(n+1)
		r.e.Schedule(at, func() {
			start := r.e.Now()
			r.m.Broadcast(targets, 4096, func(res comm.Result) {
				r.broadcasts++
				r.delivered += res.Delivered
				r.unreachable += len(res.Unreachable)
				r.retries += res.Retries
				r.checkPartition(i, targets, res)
				if d := r.e.Now() - start; d > bound {
					r.violate("seed %d: broadcast %d resolved in %v > bound %v", r.seed, i, d, bound)
				}
			})
		})
	}
}

// teardown runs stop (the components' Stop methods, in order), drains
// the engine, and checks the teardown invariants: all want driven
// broadcasts resolved (invariant 4), no delivery chain or graceful drain
// left pending, the master's meters back at their post-start baseline
// (invariant 5), and every recorded span ended.
//
// A ticker that outlived its owner's Stop re-arms forever, so the drain
// would never return: the live-ticker count is checked first, and a leak
// ends the teardown there — the checks after the drain would only
// restate it.
func (r *seedRun) teardown(want int, stop ...func()) {
	for _, s := range stop {
		s()
	}
	if n := r.e.LiveTickers(); n != 0 {
		r.violate("seed %d: %d ticker(s) still live after Stop; the drain would never end", r.seed, n)
		return
	}
	r.c.Run() // drain everything: retries, watchdogs, drains, heals, recoveries

	if r.broadcasts != want {
		r.violate("seed %d: stalled: %d/%d broadcasts resolved after drain", r.seed, r.broadcasts, want)
	}
	if n := r.m.B.OutstandingSends(); n != 0 {
		r.violate("seed %d: %d delivery chains still outstanding after drain", r.seed, n)
	}
	if n := r.m.Pool.DrainingCount(); n != 0 {
		r.violate("seed %d: %d graceful drains still pending after drain", r.seed, n)
	}
	mm := r.m.Meter()
	if v := mm.VMem(); v != r.baseVMem {
		r.violate("seed %d: master vmem %d != baseline %d after teardown", r.seed, v, r.baseVMem)
	}
	if v := mm.RSS(); v != r.baseRSS {
		r.violate("seed %d: master rss %d != baseline %d after teardown", r.seed, v, r.baseRSS)
	}
	if v := mm.Sockets(); v != r.baseSockets {
		r.violate("seed %d: master sockets %d != baseline %d after teardown", r.seed, v, r.baseSockets)
	}
	var open []string
	for id, sp := range r.e.Tracer().Spans() {
		if !sp.Ended && !sp.Instant {
			open = append(open, fmt.Sprintf("%s#%d@%v", sp.Name, id+1, sp.Start))
		}
	}
	if n := len(open); n > 0 {
		if n > 4 {
			open = append(open[:4], "...")
		}
		r.violate("seed %d: %d span(s) still open after drain: %s", r.seed, n, strings.Join(open, " "))
	}
}
