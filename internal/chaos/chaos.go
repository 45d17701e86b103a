// Package chaos is a FoundationDB-style deterministic chaos-soak harness:
// it runs the full ESlurm stack (cluster + satellite pool + master) under
// a randomized adversarial fault campaign (faults.ChaosSpec) across many
// seeds, and checks end-to-end invariants after every broadcast and after
// teardown. Because the stack runs on one deterministic simnet engine, a
// failing seed is perfectly replayable: the report is
// byte-identical for the same configuration, which digest-pinned tests
// enforce. Seeds share nothing, so both soaks run them side by side on
// workpool goroutines; results land by seed index, and the report is the
// same bytes at any GOMAXPROCS.
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
//
// The drained teardown also holds the stack's lifecycle promises: no
// ticker outlives the components' Stop, no graceful drain is left
// pending, and, on a traced seed, every recorded span has ended.
package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/faults"
	"eslurm/internal/obs"
	"eslurm/internal/workpool"
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
	// LossProb and DupProb are passed to the network (default 0; the
	// default mix exercises them via DefaultConfig).
	LossProb, DupProb float64
	// SilentFraction of fail-stop events bypass monitoring.
	SilentFraction float64
	// Trace enables simulated-time span recording on each seed's engine;
	// the tracer and metrics registry come back on the SeedResult. Tracing
	// is passive recording — it does not change any seed's event trace,
	// report, or digest.
	Trace bool
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
	return c
}

// soakMix is the plain soak's campaign over the driven span: 2 bursts,
// 2 flaps, 3 grays, 1 chassis partition and 1 satellite kill.
func soakMix(span time.Duration) faults.ChaosSpec {
	return faults.ChaosSpec{Horizon: span, Grays: 3, SatelliteKills: 1}
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
	// Trace is the seed's span recording (nil unless Config.Trace) and
	// Metrics its registry. Neither contributes to Report.String or
	// Digest — the report stays byte-stable with tracing on or off.
	Trace   *obs.Tracer
	Metrics *obs.Registry
	// CellTraces is always nil. It is kept only because the benchmark
	// module clears it by name; the benchmark's next change deletes it.
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
	mix := soakMix(c.Span)
	fmt.Fprintf(&sb, "campaign: bursts=%d flaps=%d grays=%d partitions=%d satkills=%d loss=%.3f dup=%.3f silent=%.2f\n",
		faults.ChaosBursts, faults.ChaosFlaps, mix.Grays, faults.ChaosPartitions, mix.SatelliteKills,
		c.LossProb, c.DupProb, c.SilentFraction)
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

// Soak runs the full soak, its seeds side by side on GOMAXPROCS
// workpool goroutines: every seed is an independent engine and results
// land by seed index, so the report is byte-identical at any GOMAXPROCS.
func Soak(cfg Config) *Report {
	cfg = cfg.withDefaults()
	seeds := workpool.Ordered(cfg.Seeds, 0, func(i int) SeedResult {
		return RunSeed(cfg, cfg.BaseSeed+int64(i))
	}, nil)
	return &Report{Config: cfg, Seeds: seeds}
}

// RunSeed soaks one seed: builds the stack, injects the campaign, drives
// broadcasts, drains, and checks every invariant.
func RunSeed(cfg Config, seed int64) SeedResult {
	cfg = cfg.withDefaults()
	ccfg := cluster.Config{
		Computes:   cfg.Computes,
		Satellites: cfg.Satellites,
		Net:        cluster.NetConfig{LossProb: cfg.LossProb, DupProb: cfg.DupProb},
	}
	r := newSeedRun(seed, ccfg, cfg.Trace, 0)
	events, _ := r.campaign(soakMix(cfg.Span), cfg.SilentFraction)
	sr := SeedResult{Seed: seed, CampaignEvents: events, Trace: r.e.Tracer()}
	r.drive(cfg.Broadcasts, cfg.Span, cfg.Bound)

	r.c.RunUntil(cfg.Span)
	r.teardown(cfg.Broadcasts, r.m.Stop)

	st := r.m.Stats()
	sr.Reallocations = st.Reallocations
	sr.Takeovers = st.MasterTakeovers
	sr.DrainedFallbacks = st.PoolDrainedFallbacks
	sr.Events = r.e.Processed()
	sr.Metrics = r.e.Metrics()
	sr.Broadcasts, sr.Delivered, sr.Unreachable, sr.Retries = r.broadcasts, r.delivered, r.unreachable, r.retries
	sr.Violations = r.violations
	return sr
}

// checkPartition asserts invariants 1 and 3 on one broadcast result:
// Resolved ∪ Unreachable is an exact partition of the target list — every
// target exactly once, no duplicates, no strangers — and the counters
// agree with the identities. It runs in O(n) over one count array indexed
// by NodeID, the seed's r.count: each listing in targets adds one, each
// resolution takes one away, so the partition is exact when every
// target's count ends at zero and no resolution names a node outside the
// array.
func (r *seedRun) checkPartition(bc int, targets []cluster.NodeID, res comm.Result) {
	seed := r.seed
	if res.Delivered+len(res.Unreachable) != len(targets) {
		r.violate("seed %d: broadcast %d: delivered %d + unreachable %d != targets %d",
			seed, bc, res.Delivered, len(res.Unreachable), len(targets))
	}
	if res.Delivered != len(res.Resolved) {
		r.violate("seed %d: broadcast %d: Delivered %d != len(Resolved) %d",
			seed, bc, res.Delivered, len(res.Resolved))
	}
	if len(res.Resolved)+len(res.Unreachable) != len(targets) {
		return // already reported via the counter mismatch above
	}
	size := cluster.NodeID(0)
	for _, id := range targets {
		size = max(size, id+1)
	}
	if int(size) > len(r.count) {
		r.count = make([]int32, size)
	}
	count := r.count[:size]
	clear(count)
	for _, id := range targets {
		count[id]++
	}
	for _, list := range [2][]cluster.NodeID{res.Resolved, res.Unreachable} {
		for _, id := range list {
			if id < 0 || id >= size || count[id] == 0 {
				r.violate("seed %d: broadcast %d: resolution set is not an exact partition of targets (node %d resolved but not a target, or resolved twice)",
					seed, bc, id)
				return
			}
			count[id]--
		}
	}
	// Every resolution took away a listing and the lengths agree, so every
	// count is back at zero.
}
