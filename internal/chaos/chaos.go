// Package chaos is a FoundationDB-style deterministic chaos-soak harness:
// it runs the full ESlurm stack (cluster + satellite pool + master) under
// a randomized adversarial fault campaign (faults.ChaosSpec) across many
// seeds, and checks end-to-end invariants after every broadcast and after
// teardown. Because every cell of the stack is a deterministic simnet
// engine, a failing seed is perfectly replayable: the report is
// byte-identical for the same configuration, which digest-pinned tests
// enforce.
//
// The invariants (ISSUE 3):
//
//  1. every reachable target is delivered exactly once — Result.Resolved
//     plus Result.Unreachable is an exact partition of the target list;
//  2. no delivery lands on a down node (checked at the resolution
//     instant via Broadcaster.OnResolve);
//  3. Delivered + len(Unreachable) == targets for every broadcast;
//  4. every broadcast resolves within Config.Bound — no stalls;
//  5. after teardown the master's resource meters return to their
//     post-start baseline and no delivery chain is left outstanding.
package chaos

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/faults"
	"eslurm/internal/monitor"
	"eslurm/internal/obs"
	"eslurm/internal/simnet"
	"eslurm/internal/topo"
)

// Config parameterizes a soak. The zero value is runnable: Soak applies
// the defaults documented per field.
type Config struct {
	// Seeds is how many seeds to soak (default 8), starting at BaseSeed
	// (default 1).
	Seeds    int
	BaseSeed int64
	// Computes and Satellites size the cluster (defaults 1024 and 4 —
	// the acceptance scale).
	Computes   int
	Satellites int
	// Span is the driven portion of virtual time (default 10 minutes);
	// the engine then drains to completion.
	Span time.Duration
	// Broadcasts is how many full-cluster broadcasts the driver issues,
	// spread evenly over Span (default 20).
	Broadcasts int
	// Bound is the per-broadcast resolution bound, invariant 4. The
	// default 8 minutes covers the worst legal chain: ReallocLimit
	// watchdog timeouts back-to-back plus the master-takeover broadcast.
	Bound time.Duration
	// Spec is the campaign mix. A zero Spec selects the default mix:
	// 2 bursts, 2 flaps, 3 grays, 1 chassis partition, 1 satellite kill.
	// Spec.Horizon defaults to Span.
	Spec faults.ChaosSpec
	// LossProb and DupProb are passed to the network (default 0; the
	// default mix exercises them via DefaultConfig).
	LossProb, DupProb float64
	// SilentFraction of fail-stop events bypass monitoring.
	SilentFraction float64
	// Retry overrides the broadcaster's retry policy; nil selects a
	// backoff policy (4 attempts, 50ms base, ×2, 2s cap, 30s deadline,
	// 0.5 jitter) so the adversarial retry path is exercised.
	Retry *comm.RetryPolicy
	// Trace enables simulated-time span recording on each seed's cells;
	// the tracers and metrics registry come back on the SeedResult. Tracing
	// is passive recording — it does not change any seed's event trace,
	// report, or digest.
	Trace bool
	// Cells partitions each seed's cluster by rack (topo.Partition): the
	// control plane gets a cell and every compute rack its own. False keeps
	// the cluster on one cell.
	Cells bool
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 8
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Computes <= 0 {
		c.Computes = 1024
	}
	if c.Satellites <= 0 {
		c.Satellites = 4
	}
	if c.Span <= 0 {
		c.Span = 10 * time.Minute
	}
	if c.Broadcasts <= 0 {
		c.Broadcasts = 20
	}
	if c.Bound <= 0 {
		c.Bound = 8 * time.Minute
	}
	zero := faults.ChaosSpec{}
	if c.Spec == zero {
		c.Spec = faults.ChaosSpec{Bursts: 2, Flaps: 2, Grays: 3, Partitions: 1, SatelliteKills: 1}
	}
	if c.Spec.Horizon <= 0 {
		c.Spec.Horizon = c.Span
	}
	if c.Retry == nil {
		c.Retry = &comm.RetryPolicy{
			MaxAttempts: 4,
			Backoff:     50 * time.Millisecond,
			MaxBackoff:  2 * time.Second,
			JitterFrac:  0.5,
			Deadline:    30 * time.Second,
		}
	}
	return c
}

// DefaultConfig is the default campaign mix at the acceptance scale, with
// message loss and duplication turned on.
func DefaultConfig() Config {
	c := Config{}.withDefaults()
	c.LossProb = 0.01
	c.DupProb = 0.01
	return c
}

// SeedResult is one seed's outcome.
type SeedResult struct {
	Seed             int64
	Events           uint64 // engine events processed
	CampaignEvents   int
	Broadcasts       int // resolved broadcasts
	Delivered        int
	Unreachable      int
	Retries          int
	Reallocations    int
	Takeovers        int
	DrainedFallbacks int
	Violations       []string
	// CellTraces holds the seed's span recordings, one per cell in cell
	// order (nil unless Config.Trace; flatten with critpath.FromCells), and
	// Trace is the control cell's — the whole recording on one cell.
	// Metrics is the seed's registry, merged across cells. None of them
	// contributes to Report.String or Digest — the report stays byte-stable
	// with tracing on or off.
	Trace      *obs.Tracer
	Metrics    *obs.Registry
	CellTraces []*obs.Tracer
}

// Report is a full soak's outcome. Its String form is byte-stable for a
// given Config — the determinism contract the digest test pins.
type Report struct {
	Config Config
	Seeds  []SeedResult
}

// Violations returns the total violation count across seeds.
func (r *Report) Violations() int {
	n := 0
	for _, s := range r.Seeds {
		n += len(s.Violations)
	}
	return n
}

// String renders the digest-stable report.
func (r *Report) String() string {
	var sb strings.Builder
	c := r.Config
	fmt.Fprintf(&sb, "chaos soak: seeds=%d base=%d computes=%d satellites=%d span=%v broadcasts=%d bound=%v\n",
		c.Seeds, c.BaseSeed, c.Computes, c.Satellites, c.Span, c.Broadcasts, c.Bound)
	fmt.Fprintf(&sb, "campaign: bursts=%d flaps=%d grays=%d partitions=%d satkills=%d background=%.1f/day loss=%.3f dup=%.3f silent=%.2f\n",
		c.Spec.Bursts, c.Spec.Flaps, c.Spec.Grays, c.Spec.Partitions, c.Spec.SatelliteKills,
		c.Spec.BackgroundPerDay, c.LossProb, c.DupProb, c.SilentFraction)
	for _, s := range r.Seeds {
		fmt.Fprintf(&sb, "seed %d: events=%d campaign=%d broadcasts=%d delivered=%d unreachable=%d retries=%d reallocs=%d takeovers=%d drained=%d violations=%d\n",
			s.Seed, s.Events, s.CampaignEvents, s.Broadcasts, s.Delivered,
			s.Unreachable, s.Retries, s.Reallocations, s.Takeovers, s.DrainedFallbacks, len(s.Violations))
		for _, v := range s.Violations {
			fmt.Fprintf(&sb, "  VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(&sb, "total: violations=%d digest=%s\n", r.Violations(), r.Digest())
	return sb.String()
}

// Digest returns an FNV-64a digest over the per-seed results — the value
// the determinism test pins.
func (r *Report) Digest() string {
	h := fnv.New64a()
	for _, s := range r.Seeds {
		fmt.Fprintf(h, "%d:%d:%d:%d:%d:%d:%d:%d:%d:%d;", s.Seed, s.Events, s.CampaignEvents,
			s.Broadcasts, s.Delivered, s.Unreachable, s.Retries, s.Reallocations,
			s.Takeovers, s.DrainedFallbacks)
		for _, v := range s.Violations {
			fmt.Fprintf(h, "%s;", v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Soak runs the full soak.
func Soak(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{Config: cfg}
	for i := 0; i < cfg.Seeds; i++ {
		rep.Seeds = append(rep.Seeds, RunSeed(cfg, cfg.BaseSeed+int64(i)))
	}
	return rep
}

// RunSeed soaks one seed: builds the stack, injects the campaign, drives
// broadcasts, drains, and checks every invariant.
func RunSeed(cfg Config, seed int64) SeedResult {
	cfg = cfg.withDefaults()
	sr := SeedResult{Seed: seed}
	violate := func(format string, args ...interface{}) {
		if len(sr.Violations) < 64 {
			sr.Violations = append(sr.Violations, fmt.Sprintf(format, args...))
		}
	}

	e := simnet.NewEngine(seed)
	ccfg := cluster.Config{
		Computes:   cfg.Computes,
		Satellites: cfg.Satellites,
		Net:        cluster.NetConfig{LossProb: cfg.LossProb, DupProb: cfg.DupProb},
	}
	if cfg.Cells {
		ccfg = topo.Default().Partition(ccfg)
	}
	c := cluster.New(e, ccfg)
	if cfg.Trace {
		c.Group().EnableTracing()
		sr.CellTraces = c.Group().CellTracers()
		sr.Trace = sr.CellTraces[0]
	}
	mon := monitor.New(c, monitor.Config{})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	m.B.RecordResolved = true
	m.B.Retry = cfg.Retry
	mon.ObservePool(m.Pool)

	// Invariant 2: a delivery must never land on a node that is down at
	// the resolution instant. OnResolve fires once per (broadcast,
	// target) chain, duplicates already deduplicated, on the cell of the
	// broadcast's origin — the control cell, whose view Failed reads.
	m.B.OnResolve = func(to cluster.NodeID, ok bool) {
		if ok && c.Node(to).Failed() {
			violate("seed %d: delivered to down node %d at %v", seed, to, e.Now())
		}
	}

	m.Start()

	// Meters baseline (invariant 5) — taken after Start's synchronous
	// base charges, before any event runs.
	mm := m.Meter()
	baseVMem, baseRSS, baseSockets := mm.VMem(), mm.RSS(), mm.Sockets()

	cp := faults.New(c, mon, cfg.SilentFraction)
	cp.Generate(cfg.Spec)
	sr.CampaignEvents = len(cp.Events)

	targets := c.Computes()
	for i := 0; i < cfg.Broadcasts; i++ {
		i := i
		at := cfg.Span * time.Duration(i+1) / time.Duration(cfg.Broadcasts+1)
		e.Schedule(at, func() {
			start := e.Now()
			m.Broadcast(targets, 4096, func(r comm.Result) {
				sr.Broadcasts++
				sr.Delivered += r.Delivered
				sr.Unreachable += len(r.Unreachable)
				sr.Retries += r.Retries
				checkPartition(seed, i, targets, r, violate)
				if d := e.Now() - start; d > cfg.Bound {
					violate("seed %d: broadcast %d resolved in %v > bound %v", seed, i, d, cfg.Bound)
				}
			})
		})
	}

	c.RunUntil(cfg.Span)
	m.Stop()
	c.Run() // drain everything: retries, watchdogs, heals, recoveries

	st := m.Stats()
	sr.Reallocations = st.Reallocations
	sr.Takeovers = st.MasterTakeovers
	sr.DrainedFallbacks = st.PoolDrainedFallbacks
	sr.Events = c.Group().Processed()
	sr.Metrics = c.Group().MergedMetrics()

	// Invariant 4 (no stalls): every driven broadcast resolved by drain.
	if sr.Broadcasts != cfg.Broadcasts {
		violate("seed %d: stalled: %d/%d broadcasts resolved after drain", seed, sr.Broadcasts, cfg.Broadcasts)
	}
	// Invariant 5: teardown returns the master to its post-start baseline.
	if n := m.B.OutstandingSends(); n != 0 {
		violate("seed %d: %d delivery chains still outstanding after drain", seed, n)
	}
	if v := mm.VMem(); v != baseVMem {
		violate("seed %d: master vmem %d != baseline %d after teardown", seed, v, baseVMem)
	}
	if v := mm.RSS(); v != baseRSS {
		violate("seed %d: master rss %d != baseline %d after teardown", seed, v, baseRSS)
	}
	if v := mm.Sockets(); v != baseSockets {
		violate("seed %d: master sockets %d != baseline %d after teardown", seed, v, baseSockets)
	}
	return sr
}

// checkPartition asserts invariants 1 and 3 on one broadcast result:
// Resolved ∪ Unreachable is an exact partition of the target list — every
// target exactly once, no duplicates, no strangers — and the counters
// agree with the identities.
func checkPartition(seed int64, bc int, targets []cluster.NodeID, r comm.Result, violate func(string, ...interface{})) {
	if r.Delivered+len(r.Unreachable) != len(targets) {
		violate("seed %d: broadcast %d: delivered %d + unreachable %d != targets %d",
			seed, bc, r.Delivered, len(r.Unreachable), len(targets))
	}
	if r.Delivered != len(r.Resolved) {
		violate("seed %d: broadcast %d: Delivered %d != len(Resolved) %d",
			seed, bc, r.Delivered, len(r.Resolved))
	}
	all := make([]cluster.NodeID, 0, len(r.Resolved)+len(r.Unreachable))
	all = append(all, r.Resolved...)
	all = append(all, r.Unreachable...)
	slices.Sort(all)
	want := slices.Clone(targets)
	slices.Sort(want)
	if len(all) != len(want) {
		return // already reported via the counter mismatch above
	}
	for i := range all {
		if all[i] != want[i] {
			violate("seed %d: broadcast %d: resolution set is not an exact partition of targets (first mismatch at rank %d: got node %d want %d)",
				seed, bc, i, all[i], want[i])
			return
		}
	}
}
