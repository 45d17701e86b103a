package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/topo"
)

// Sharded soak: the chaos harness ported to the shard-parallel kernel.
// One ShardedCluster is partitioned topologically (control plane on cell
// 0, one cell per compute rack) and executed on Workers goroutines; the
// fault campaign is drawn from a seed-keyed generator on the coordinator
// and pre-scheduled identically on every cell, so the entire soak —
// kernel digest included — is invariant under the worker count. That is
// the property the sharded determinism test pins.
//
// The invariant set matches the single-engine soak where the sharded
// stack has the same concept (broadcast partition exactness, no delivery
// to a down node, per-broadcast bound, drained teardown); master
// takeover and pool reallocation are features of the core.Master stack
// and are exercised by the legacy soak only.

// ShardedConfig parameterizes a sharded soak. The zero value is runnable.
type ShardedConfig struct {
	// Seeds is how many seeds to soak (default 8), starting at BaseSeed
	// (default 1).
	Seeds    int
	BaseSeed int64
	// Computes and Satellites size the cluster (defaults 1024 and 4).
	Computes   int
	Satellites int
	// Workers is the shard worker count (default 2). It never changes
	// results — only wall-clock.
	Workers int
	// Span is the driven portion of virtual time (default 10 minutes);
	// the group then drains until Span+Bound+1m.
	Span time.Duration
	// Broadcasts is how many full-cluster broadcasts the driver issues,
	// rotating star/tree/relayed shapes (default 20).
	Broadcasts int
	// Bound is the per-broadcast resolution bound (default 8 minutes).
	Bound time.Duration
	// Campaign mix (defaults: 6 fails, 3 grays, 1 partition, 2 degrades).
	Fails, Grays, Partitions, Degrades int
	// LossProb and DupProb are the network adversities (default 0.01).
	LossProb, DupProb float64
	// Trace arms per-cell span recording: each SeedResult carries its
	// CellTraces for critical-path analysis. Recording is passive (no
	// events, no RNG), so the report and kernel digest are unchanged.
	Trace bool
}

func (c ShardedConfig) withDefaults() ShardedConfig {
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
	if c.Workers <= 0 {
		c.Workers = 2
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
	if c.Fails == 0 {
		c.Fails = 6
	}
	if c.Grays == 0 {
		c.Grays = 3
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.Degrades == 0 {
		c.Degrades = 2
	}
	if c.LossProb == 0 {
		c.LossProb = 0.01
	}
	if c.DupProb == 0 {
		c.DupProb = 0.01
	}
	return c
}

// ShardedReport is a sharded soak's outcome; String is byte-stable for a
// given config at ANY worker count.
type ShardedReport struct {
	Config ShardedConfig
	Seeds  []SeedResult
}

// Violations returns the total violation count across seeds.
func (r *ShardedReport) Violations() int {
	n := 0
	for _, s := range r.Seeds {
		n += len(s.Violations)
	}
	return n
}

// String renders the digest-stable report. Workers is deliberately not
// printed: the report must compare byte-equal across worker counts.
func (r *ShardedReport) String() string {
	var sb strings.Builder
	c := r.Config
	fmt.Fprintf(&sb, "sharded chaos soak: seeds=%d base=%d computes=%d satellites=%d span=%v broadcasts=%d bound=%v\n",
		c.Seeds, c.BaseSeed, c.Computes, c.Satellites, c.Span, c.Broadcasts, c.Bound)
	fmt.Fprintf(&sb, "campaign: fails=%d grays=%d partitions=%d degrades=%d loss=%.3f dup=%.3f\n",
		c.Fails, c.Grays, c.Partitions, c.Degrades, c.LossProb, c.DupProb)
	for _, s := range r.Seeds {
		fmt.Fprintf(&sb, "seed %d: events=%d campaign=%d broadcasts=%d delivered=%d unreachable=%d retries=%d kernel=%016x violations=%d\n",
			s.Seed, s.Events, s.CampaignEvents, s.Broadcasts, s.Delivered,
			s.Unreachable, s.Retries, s.KernelDigest, len(s.Violations))
		for _, v := range s.Violations {
			fmt.Fprintf(&sb, "  VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(&sb, "total: violations=%d digest=%s\n", r.Violations(), r.Digest())
	return sb.String()
}

// Digest returns an FNV-64a digest over the per-seed results, kernel
// digests included.
func (r *ShardedReport) Digest() string {
	h := fnv.New64a()
	for _, s := range r.Seeds {
		fmt.Fprintf(h, "%d:%d:%d:%d:%d:%d:%d:%016x;", s.Seed, s.Events, s.CampaignEvents,
			s.Broadcasts, s.Delivered, s.Unreachable, s.Retries, s.KernelDigest)
		for _, v := range s.Violations {
			fmt.Fprintf(h, "%s;", v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ShardedSoak runs the full sharded soak.
func ShardedSoak(cfg ShardedConfig) *ShardedReport {
	cfg = cfg.withDefaults()
	rep := &ShardedReport{Config: cfg}
	for i := 0; i < cfg.Seeds; i++ {
		rep.Seeds = append(rep.Seeds, RunShardedSeed(cfg, cfg.BaseSeed+int64(i)))
	}
	return rep
}

// RunShardedSeed soaks one seed on the sharded kernel.
func RunShardedSeed(cfg ShardedConfig, seed int64) SeedResult {
	cfg = cfg.withDefaults()
	sr := SeedResult{Seed: seed}
	violate := func(format string, args ...interface{}) {
		if len(sr.Violations) < 64 {
			sr.Violations = append(sr.Violations, fmt.Sprintf(format, args...))
		}
	}

	tp := topo.Default()
	per := tp.NodesPerRack()
	racks := (cfg.Computes + per - 1) / per
	if racks < 1 {
		racks = 1
	}
	firstCompute := 1 + cfg.Satellites
	sc := cluster.NewSharded(cluster.ShardConfig{
		Computes:   cfg.Computes,
		Satellites: cfg.Satellites,
		Net:        cluster.NetConfig{LossProb: cfg.LossProb, DupProb: cfg.DupProb},
		Cells:      1 + racks,
		CellOf: func(id cluster.NodeID, role cluster.Role) int {
			if role != cluster.RoleCompute {
				return 0
			}
			return 1 + tp.Rack(cluster.NodeID(int(id)-firstCompute))
		},
		Workers: cfg.Workers,
		Seed:    seed,
	})
	g := sc.Group()
	g.EnableDigest()
	if cfg.Trace {
		g.EnableTracing()
	}
	e0 := g.Cell(0)
	master := sc.Master().ID

	b := comm.NewShardBroadcaster(sc)
	b.RecordResolved = true
	// Invariant 2: no delivery lands on a down node. OnResolve fires on
	// the origin cell, so the master-cell replica is the safe view.
	b.OnResolve = func(to cluster.NodeID, ok bool) {
		if ok && sc.FailedOn(master, to) {
			violate("seed %d: delivered to down node %d at %v", seed, to, e0.Now())
		}
	}

	// Campaign: drawn coordinator-side from a seed-keyed stream and
	// pre-scheduled on every cell — worker-invariant by construction.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	comps := sc.Computes()
	sats := sc.Satellites()
	at := func() time.Duration {
		return cfg.Span/50 + time.Duration(rng.Int63n(int64(cfg.Span)*4/5))
	}
	for i := 0; i < cfg.Fails; i++ {
		recover := time.Duration(0)
		if rng.Intn(2) == 0 {
			recover = cfg.Span / 4
		}
		sc.ScheduleFail(comps[rng.Intn(len(comps))], at(), recover)
		sr.CampaignEvents++
	}
	for i := 0; i < cfg.Grays; i++ {
		sc.ScheduleGray(comps[rng.Intn(len(comps))], 2+3*rng.Float64(), at(), cfg.Span/4)
		sr.CampaignEvents++
	}
	for i := 0; i < cfg.Partitions; i++ {
		size := 32
		if size > len(comps) {
			size = len(comps)
		}
		start := 0
		if len(comps) > size {
			start = rng.Intn(len(comps) - size)
		}
		sc.SchedulePartition(comps[start:start+size], at(), cfg.Span/5)
		sr.CampaignEvents++
	}
	for i := 0; i < cfg.Degrades; i++ {
		sc.ScheduleLinkDegrade(master, comps[rng.Intn(len(comps))], 2+2*rng.Float64(), at())
		sr.CampaignEvents++
	}

	// Broadcast driver: rotate the three broadcast shapes over the span.
	for i := 0; i < cfg.Broadcasts; i++ {
		i := i
		bcAt := cfg.Span * time.Duration(i+1) / time.Duration(cfg.Broadcasts+1)
		e0.Schedule(bcAt, func() {
			start := e0.Now()
			done := func(r comm.Result) {
				sr.Broadcasts++
				sr.Delivered += r.Delivered
				sr.Unreachable += len(r.Unreachable)
				sr.Retries += r.Retries
				checkPartition(seed, i, comps, r, violate)
				if d := e0.Now() - start; d > cfg.Bound {
					violate("seed %d: broadcast %d resolved in %v > bound %v", seed, i, d, cfg.Bound)
				}
			}
			switch i % 3 {
			case 0:
				b.BroadcastStar(master, comps, 4096, done)
			case 1:
				b.BroadcastTree(master, comps, 4096, 8, done)
			default:
				b.BroadcastRelayed(master, sats, comps, 4096, 8, done)
			}
		})
	}

	g.RunUntil(cfg.Span + cfg.Bound + time.Minute)

	sr.Events = g.Processed()
	sr.KernelDigest = g.Digest()
	sr.Metrics = g.MergedMetrics()
	if cfg.Trace {
		sr.CellTraces = g.CellTracers()
	}

	// Invariant 4 (no stalls): every driven broadcast resolved by drain.
	if sr.Broadcasts != cfg.Broadcasts {
		violate("seed %d: stalled: %d/%d broadcasts resolved after drain", seed, sr.Broadcasts, cfg.Broadcasts)
	}
	// Invariant 5: no delivery chain left outstanding.
	if n := b.OutstandingSends(); n != 0 {
		violate("seed %d: %d delivery chains still outstanding after drain", seed, n)
	}
	return sr
}
