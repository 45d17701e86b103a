package chaos

// The reconcile soak: the full chaos campaign overlaid on a reconciler
// driving the cluster toward a timed spec schedule (scale up mid-run,
// then a rolling cordon replacement). On top of the per-broadcast
// invariants 1–5 it asserts the convergence contract: after the last
// fault heals, the cluster reaches spec within a bounded number of
// reconcile rounds, and no broadcast task is dropped during graceful
// drains (the exact-partition check holds for every broadcast that
// overlaps one). Reports are byte-stable; Workers only parallelizes
// independent seeds (results land by index), so the report and digest
// are identical for any worker count.

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/faults"
	"eslurm/internal/reconcile"
	"eslurm/internal/workpool"
)

// ReconcileSatellites is the reconcile soak's default satellite pool:
// the default target of 4 in service plus 2 parked standbys for the
// reconciler to promote.
const ReconcileSatellites = 6

// The reconcile soak's fixed loop settings: a reconcile round every 30s,
// graceful drains bounded at 90s, and a 2-minute FAULT→DOWN demotion
// (short enough that campaign kills exercise the revival path). The
// convergence bound is reconcileConvergeRounds rounds after the last fault
// heals.
const (
	reconcileInterval       = 30 * time.Second
	reconcileDrainDeadline  = 90 * time.Second
	reconcileFaultTimeout   = 2 * time.Minute
	reconcileConvergeRounds = 30
)

// reconcileMix is the reconcile soak's campaign over the driven span: 2
// bursts, 2 flaps, 2 grays, 1 chassis partition and 2 satellite kills.
func reconcileMix(span time.Duration) faults.ChaosSpec {
	return faults.ChaosSpec{Horizon: span, Bursts: 2, Flaps: 2, Grays: 2, Partitions: 1, SatelliteKills: 2}
}

// ReconcileConfig parameterizes a reconcile soak. The zero value is
// runnable.
type ReconcileConfig struct {
	// Seeds starting at BaseSeed (defaults 4 and 1).
	Seeds    int
	BaseSeed int64
	// Computes and Satellites size the cluster; Satellites is the total
	// satellite-node count including parked standbys (defaults 256 and
	// ReconcileSatellites).
	Computes   int
	Satellites int
	// Target is the initial spec's desired in-service satellite count
	// (default 4, leaving standbys for the reconciler to promote).
	Target int
	// Span is the driven portion of virtual time (default 12 minutes);
	// faults and broadcasts land inside it.
	Span time.Duration
	// Broadcasts spread evenly over Span (default 12); Bound is the
	// per-broadcast resolution bound (default 8 minutes).
	Broadcasts int
	Bound      time.Duration
	// LossProb and DupProb are network fault rates (default 0.01 each).
	LossProb, DupProb float64
	// Initial overrides the starting spec (zero Satellites selects
	// {Target, min 1, max Satellites}); Mutations overrides the timed
	// spec schedule (nil selects scale-up at Span/3 and a rolling cordon
	// of satellite 2 at 2·Span/3).
	Initial   reconcile.Spec
	Mutations []reconcile.Mutation
	// Workers is how many seeds run side by side; zero means GOMAXPROCS,
	// as in Soak. The report is byte-identical for any value: each seed
	// runs on its own engine and results land by seed index.
	Workers int
}

func (c ReconcileConfig) withDefaults() ReconcileConfig {
	if c.Seeds <= 0 {
		c.Seeds = 4
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Computes <= 0 {
		c.Computes = 256
	}
	if c.Satellites <= 0 {
		c.Satellites = ReconcileSatellites
	}
	if c.Target <= 0 {
		c.Target = 4
	}
	if c.Target > c.Satellites {
		c.Target = c.Satellites
	}
	if c.Span <= 0 {
		c.Span = 12 * time.Minute
	}
	if c.Broadcasts <= 0 {
		c.Broadcasts = 12
	}
	if c.Bound <= 0 {
		c.Bound = 8 * time.Minute
	}
	if c.LossProb == 0 && c.DupProb == 0 {
		c.LossProb, c.DupProb = 0.01, 0.01
	}
	if c.Initial.Satellites == 0 {
		c.Initial = reconcile.Spec{Satellites: c.Target, MinSatellites: 1, MaxSatellites: c.Satellites}
	}
	if c.Mutations == nil {
		c.Mutations = []reconcile.Mutation{
			// Scale up by one satellite a third of the way in...
			{At: reconcile.Duration(c.Span / 3), Spec: reconcile.Spec{
				Satellites: c.Target + 1, MinSatellites: 1, MaxSatellites: c.Satellites}},
			// ...then a rolling replacement: cordon satellite 2, back at
			// the original target.
			{At: reconcile.Duration(2 * c.Span / 3), Spec: reconcile.Spec{
				Satellites: c.Target, MinSatellites: 1, MaxSatellites: c.Satellites,
				Cordoned: []cluster.NodeID{2}}},
		}
	}
	return c
}

// ReconcileSeedResult is one seed's outcome. All fields are plain data —
// nothing engine-bound crosses the worker-pool boundary.
type ReconcileSeedResult struct {
	Seed           int64
	Events         uint64
	CampaignEvents int
	Broadcasts     int
	Delivered      int
	Unreachable    int
	Retries        int
	Reallocations  int
	// MasterTakeovers counts the core takeover fallback (direct broadcast
	// after ReallocLimit); RollingTakeovers counts reconciler-paired
	// drain+promote replacements.
	MasterTakeovers  int
	Rounds           int
	RoundsAfterHeal  int
	Promotes         int
	Drains           int
	DrainsForced     int
	RollingTakeovers int
	BreakerOpens     int
	SpecUpdates      int
	Converged        bool
	Violations       []string

	// lastHeal is when the campaign's last fault heals, and countFrom
	// when RoundsAfterHeal starts counting (virtual time).
	lastHeal, countFrom time.Duration
}

// ReconcileReport is a full reconcile soak's outcome; String and Digest
// are byte-stable for a given config, at any Workers value.
type ReconcileReport struct {
	Config ReconcileConfig
	Seeds  []ReconcileSeedResult
}

// Violations returns the total violation count across seeds.
func (r *ReconcileReport) Violations() int {
	n := 0
	for _, s := range r.Seeds {
		n += len(s.Violations)
	}
	return n
}

// String renders the digest-stable report.
func (r *ReconcileReport) String() string {
	var sb strings.Builder
	c := r.Config
	fmt.Fprintf(&sb, "reconcile soak: seeds=%d base=%d computes=%d satellites=%d target=%d span=%v broadcasts=%d bound=%v interval=%v drain=%v fault_timeout=%v budget=%d\n",
		c.Seeds, c.BaseSeed, c.Computes, c.Satellites, c.Target, c.Span, c.Broadcasts, c.Bound,
		reconcileInterval, reconcileDrainDeadline, reconcileFaultTimeout, reconcileConvergeRounds)
	mix := reconcileMix(c.Span)
	fmt.Fprintf(&sb, "campaign: bursts=%d flaps=%d grays=%d partitions=%d satkills=%d loss=%.3f dup=%.3f mutations=%d\n",
		mix.Bursts, mix.Flaps, mix.Grays, mix.Partitions, mix.SatelliteKills,
		c.LossProb, c.DupProb, len(c.Mutations))
	for _, s := range r.Seeds {
		fmt.Fprintf(&sb, "seed %d: events=%d campaign=%d broadcasts=%d delivered=%d unreachable=%d retries=%d reallocs=%d mtakeovers=%d rounds=%d heal_rounds=%d promotes=%d drains=%d forced=%d rtakeovers=%d breakers=%d specs=%d converged=%t violations=%d\n",
			s.Seed, s.Events, s.CampaignEvents, s.Broadcasts, s.Delivered, s.Unreachable,
			s.Retries, s.Reallocations, s.MasterTakeovers, s.Rounds, s.RoundsAfterHeal,
			s.Promotes, s.Drains, s.DrainsForced, s.RollingTakeovers, s.BreakerOpens,
			s.SpecUpdates, s.Converged, len(s.Violations))
		for _, v := range s.Violations {
			fmt.Fprintf(&sb, "  VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(&sb, "total: violations=%d digest=%s\n", r.Violations(), r.Digest())
	return sb.String()
}

// Digest returns an FNV-64a digest over the per-seed results.
func (r *ReconcileReport) Digest() string {
	h := fnv.New64a()
	for _, s := range r.Seeds {
		fmt.Fprintf(h, "%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%d:%t;",
			s.Seed, s.Events, s.CampaignEvents, s.Broadcasts, s.Delivered, s.Unreachable,
			s.Retries, s.Reallocations, s.MasterTakeovers, s.Rounds, s.RoundsAfterHeal,
			s.Promotes, s.Drains, s.DrainsForced, s.RollingTakeovers, s.BreakerOpens,
			s.SpecUpdates, s.Converged)
		for _, v := range s.Violations {
			fmt.Fprintf(h, "%s;", v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ReconcileSoak runs the full reconcile soak, fanning seeds out over
// workpool.Workers(Seeds, Workers) goroutines; every seed is an independent
// engine and results land by seed index, so the report is byte-identical
// for any worker count.
func ReconcileSoak(cfg ReconcileConfig) *ReconcileReport {
	cfg = cfg.withDefaults()
	seeds := workpool.Ordered(cfg.Seeds, cfg.Workers, func(i int) ReconcileSeedResult {
		return RunReconcileSeed(cfg, cfg.BaseSeed+int64(i))
	}, nil)
	return &ReconcileReport{Config: cfg, Seeds: seeds}
}

// RunReconcileSeed soaks one seed: stack + reconciler + spec schedule +
// campaign + broadcasts, then drives past the last heal and asserts the
// convergence contract.
func RunReconcileSeed(cfg ReconcileConfig, seed int64) ReconcileSeedResult {
	return runReconcileSeed(cfg, seed, false)
}

// runReconcileSeed is RunReconcileSeed with span recording optionally
// armed, so a test can hold the reconciler's asynchronous spans to the
// teardown's open-span check.
func runReconcileSeed(cfg ReconcileConfig, seed int64, trace bool) ReconcileSeedResult {
	cfg = cfg.withDefaults()
	r := newSeedRun(seed, cluster.Config{
		Computes:   cfg.Computes,
		Satellites: cfg.Satellites,
		Net:        cluster.NetConfig{LossProb: cfg.LossProb, DupProb: cfg.DupProb},
	}, trace, reconcileFaultTimeout)

	rec := reconcile.New(r.m, cfg.Initial, reconcile.Config{
		Interval:      reconcileInterval,
		DrainDeadline: reconcileDrainDeadline,
	})
	rec.Start()
	rec.ScheduleMutations(cfg.Mutations)

	events, lastHeal := r.campaign(reconcileMix(cfg.Span), 0)
	sr := ReconcileSeedResult{Seed: seed, CampaignEvents: events, lastHeal: lastHeal}
	r.drive(cfg.Broadcasts, cfg.Span, cfg.Bound)

	// Drive the adversarial span, then one minute past the later of its
	// end and the campaign's last heal: a flap or an outage drawn late in
	// the span can heal past it.
	r.c.RunUntil(cfg.Span)
	r.c.RunUntil(max(cfg.Span, lastHeal) + time.Minute)

	// Convergence contract: from the first round after the last heal, the
	// reconciler must reach spec within reconcileConvergeRounds rounds.
	sr.countFrom = r.e.Now()
	roundsAtHeal := rec.Rounds()
	for i := 0; i < reconcileConvergeRounds && !rec.Converged(); i++ {
		r.c.RunUntil(r.e.Now() + reconcileInterval)
	}
	st := rec.Status()
	sr.Converged = st.Converged
	sr.RoundsAfterHeal = st.Rounds - roundsAtHeal
	if !st.Converged {
		r.violate("seed %d: not converged %d rounds after last heal (spec %+v)",
			seed, sr.RoundsAfterHeal, rec.Spec())
	}

	// No stalls at teardown: every driven broadcast resolved — with the
	// exact-partition check, this is the "no task dropped during drain"
	// guarantee.
	r.teardown(cfg.Broadcasts, rec.Stop, r.m.Stop)

	ms := r.m.Stats()
	sr.Reallocations = ms.Reallocations
	sr.MasterTakeovers = ms.MasterTakeovers
	st = rec.Status()
	sr.Rounds = st.Rounds
	sr.Promotes = st.Promotes
	sr.Drains = st.Drains
	sr.DrainsForced = st.DrainsForced
	sr.RollingTakeovers = st.Takeovers
	sr.BreakerOpens = st.BreakerOpens
	sr.SpecUpdates = st.SpecUpdates
	sr.Events = r.e.Processed()
	sr.Broadcasts, sr.Delivered, sr.Unreachable, sr.Retries = r.broadcasts, r.delivered, r.unreachable, r.retries
	// A copy, so nothing of the engine-owned run crosses the worker pool.
	sr.Violations = slices.Clone(r.violations)
	return sr
}
