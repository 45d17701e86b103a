// Package reconcile drives the simulated ESlurm cluster toward a
// declarative spec, the operator/reconcile pattern applied to the paper's
// satellite layer: a periodic observe→diff→act loop scales the satellite
// pool up and down, gracefully drains cordoned satellites (in-flight
// broadcast tasks resolve before demotion), performs rolling takeovers
// (a warm standby is promoted in the same round its predecessor drains;
// stranded sends are re-adopted by the master's existing retry and
// reallocation machinery), and self-heals after fault campaigns, with
// per-node exponential backoff and a crash-looping circuit breaker so a
// flapping node cannot livelock the loop.
//
// Determinism: the loop runs entirely in simulated time — the round
// ticker, drain deadlines, and probes are engine events; there are no
// goroutines, no wall clocks, and no RNG. Per-round iteration follows
// the pool's configuration order and the spec's sorted cordon list (maps
// are indexed, never ranged), so the same seed and spec schedule replay
// the same action sequence bit for bit.
package reconcile

import (
	"strconv"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/core"
	"eslurm/internal/obs"
	"eslurm/internal/satellite"
	"eslurm/internal/simnet"
)

// Config tunes the reconcile loop. Zero values take defaults.
type Config struct {
	// Interval is the reconcile-round cadence.
	Interval time.Duration
	// DrainDeadline bounds how long a graceful drain waits for in-flight
	// tasks before forcing the demotion.
	DrainDeadline time.Duration
	// BackoffBase is the first per-node backoff applied after a failed
	// revival (promoted, then faulted again); each further failure
	// doubles it, up to backoffMax.
	BackoffBase time.Duration
	// BreakerThreshold is how many consecutive failed revivals open the
	// crash-loop circuit breaker for that node; BreakerCooldown is how
	// long it stays open.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// StableRounds is how many consecutive healthy rounds a revived node
	// must survive before its failure count resets.
	StableRounds int
}

// backoffMax caps the per-node revival backoff.
const backoffMax = 5 * time.Minute

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = 2 * time.Minute
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Minute
	}
	if c.StableRounds <= 0 {
		c.StableRounds = 2
	}
	return c
}

// Status is a point-in-time summary of the reconciler's work.
type Status struct {
	// Rounds is the number of completed reconcile rounds.
	Rounds int
	// Actions counts state-changing decisions (promotes + drains).
	Actions int
	// Promotes counts standby revivals (Reinstate + probe).
	Promotes int
	// Drains counts graceful drains started; DrainsForced counts the
	// subset whose deadline expired with tasks still in flight.
	Drains       int
	DrainsForced int
	// Takeovers counts rolling replacements: a cordoned satellite drained
	// and a warm standby promoted in the same round.
	Takeovers int
	// BreakerOpens counts circuit-breaker trips.
	BreakerOpens int
	// SpecUpdates counts SetSpec calls (schedule mutations included).
	SpecUpdates int
	// Converged reports whether the cluster met the current spec at the
	// end of the last round; ConvergedRound is the first round (1-based)
	// that did so since the spec last changed (0 = not yet).
	Converged      bool
	ConvergedRound int
}

// nodeCtl is the reconciler's per-satellite control state: backoff and
// breaker bookkeeping for the self-healing path.
type nodeCtl struct {
	failures      int
	backoff       time.Duration
	notBefore     time.Duration
	breakerUntil  time.Duration
	pendingRevive bool
	stable        int
}

// Reconciler runs the observe→diff→act loop over a master's satellite
// pool. Construct with New, arm with Start; all further work happens
// inside engine events.
type Reconciler struct {
	m    *core.Master
	e    *simnet.Engine
	cfg  Config
	spec Spec

	ticker   *simnet.Ticker
	ctl      map[cluster.NodeID]*nodeCtl
	draining map[cluster.NodeID]bool
	st       Status

	rounds       *obs.Counter
	actions      *obs.Counter
	promotes     *obs.Counter
	drains       *obs.Counter
	drainsForced *obs.Counter
	takeovers    *obs.Counter
	breakerOpens *obs.Counter
	specUpdates  *obs.Counter
	converged    *obs.Gauge
}

// New builds a reconciler for the master's pool. The spec is normalized;
// its ESlurm parameters are applied to the master immediately.
func New(m *core.Master, spec Spec, cfg Config) *Reconciler {
	e := m.Cluster.Engine
	reg := e.Metrics()
	r := &Reconciler{
		m:        m,
		e:        e,
		cfg:      cfg.withDefaults(),
		spec:     spec.Normalized(),
		ctl:      map[cluster.NodeID]*nodeCtl{},
		draining: map[cluster.NodeID]bool{},

		rounds:       reg.Counter("reconcile.rounds"),
		actions:      reg.Counter("reconcile.actions"),
		promotes:     reg.Counter("reconcile.promotes"),
		drains:       reg.Counter("reconcile.drains"),
		drainsForced: reg.Counter("reconcile.drains_forced"),
		takeovers:    reg.Counter("reconcile.takeovers"),
		breakerOpens: reg.Counter("reconcile.breaker_opens"),
		specUpdates:  reg.Counter("reconcile.spec_updates"),
		converged:    reg.Gauge("reconcile.converged"),
	}
	r.m.Tune(r.spec.TreeWidth, r.spec.ReallocLimit, time.Duration(r.spec.HeartbeatInterval))
	return r
}

// Start arms the periodic reconcile loop on the engine.
func (r *Reconciler) Start() {
	if r.ticker != nil {
		return
	}
	r.ticker = r.e.Every(r.cfg.Interval, r.round)
}

// Stop disarms the loop. Pending drain deadlines still resolve (they
// belong to the pool), but no further rounds run.
func (r *Reconciler) Stop() {
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
}

// Spec returns the current (normalized) spec.
func (r *Reconciler) Spec() Spec { return r.spec }

// Status returns the current status summary.
func (r *Reconciler) Status() Status { return r.st }

// Rounds returns the number of completed rounds.
func (r *Reconciler) Rounds() int { return r.st.Rounds }

// Converged reports whether the cluster met the spec at the end of the
// last completed round.
func (r *Reconciler) Converged() bool { return r.st.Converged }

// SetSpec replaces the spec (a schedule mutation or operator edit),
// resets convergence tracking, and applies the spec's ESlurm parameters.
func (r *Reconciler) SetSpec(s Spec) {
	r.spec = s.Normalized()
	r.st.SpecUpdates++
	r.specUpdates.Inc()
	r.st.Converged = false
	r.st.ConvergedRound = 0
	r.converged.Set(0)
	r.e.Tracer().Instant("reconcile.spec_update", 0,
		obs.Int("satellites", r.spec.Satellites),
		obs.Int("cordoned", len(r.spec.Cordoned)))
	r.m.Tune(r.spec.TreeWidth, r.spec.ReallocLimit, time.Duration(r.spec.HeartbeatInterval))
}

// ScheduleMutations arms a schedule's timed spec mutations as engine
// events.
func (r *Reconciler) ScheduleMutations(muts []Mutation) {
	for _, mu := range muts {
		spec := mu.Spec
		r.e.Schedule(time.Duration(mu.At), func() { r.SetSpec(spec) })
	}
}

func (r *Reconciler) ctlFor(id cluster.NodeID) *nodeCtl {
	c := r.ctl[id]
	if c == nil {
		c = &nodeCtl{backoff: r.cfg.BackoffBase}
		r.ctl[id] = c
	}
	return c
}

// round is one observe→diff→act pass. It runs as an engine event.
func (r *Reconciler) round() {
	r.st.Rounds++
	r.rounds.Inc()
	now := r.e.Now()
	tr := r.e.Tracer()
	span := tr.Start("reconcile.round", 0, obs.Int("round", r.st.Rounds))

	pool := r.m.Pool
	cordonSet := map[cluster.NodeID]bool{}
	for _, id := range r.spec.Cordoned {
		cordonSet[id] = true
	}

	// Observe: settle revival bookkeeping (backoff, breaker) and align
	// cordon marks with the spec before acting.
	for _, s := range pool.All() {
		r.observeNode(s, cordonSet[s.ID], now, span)
	}

	// Target: the spec's desired count clamped to the satellites that can
	// actually serve it (pool members not held out by the cordon list).
	eligible := 0
	for _, s := range pool.All() {
		if !cordonSet[s.ID] {
			eligible++
		}
	}
	target := r.spec.Satellites
	if target > eligible {
		target = eligible
	}

	actions := 0
	var drainedCordons []cluster.NodeID

	// Act 1: enforce the cordon list — gracefully drain any cordoned
	// satellite still in service.
	for _, id := range r.spec.Cordoned {
		s := pool.Get(id)
		if s == nil || r.draining[id] || s.State() == satellite.Down {
			continue
		}
		r.drainSat(s)
		actions++
		drainedCordons = append(drainedCordons, id)
	}

	// Observe the remaining fleet: active satellites (in service or
	// probing) versus parked standbys.
	active := 0
	var standbys []*satellite.Satellite
	for _, s := range pool.All() {
		if cordonSet[s.ID] || r.draining[s.ID] {
			continue
		}
		switch s.State() {
		case satellite.Unknown, satellite.Running, satellite.Busy:
			active++
		case satellite.Down:
			standbys = append(standbys, s)
		case satellite.Fault:
			// The heartbeat sweep owns FAULT recovery; the FAULT-timeout
			// owns demotion. The reconciler waits for one of them.
		}
	}

	// Act 2: diff against the target and scale.
	var promoted []cluster.NodeID
	if active < target {
		for _, s := range standbys {
			if active+len(promoted) >= target {
				break
			}
			if r.promote(s, now, span) {
				promoted = append(promoted, s.ID)
				actions++
			}
		}
	} else if active > target {
		// Scale down gracefully, highest IDs first, so the satellites that
		// remain are the stable low-ID prefix.
		excess := active - target
		all := pool.All()
		for i := len(all) - 1; i >= 0 && excess > 0; i-- {
			s := all[i]
			if cordonSet[s.ID] || r.draining[s.ID] {
				continue
			}
			switch s.State() {
			case satellite.Unknown, satellite.Running, satellite.Busy:
				r.drainSat(s)
				actions++
				excess--
			}
		}
	}

	// A promotion landing in the same round as a cordon drain is a rolling
	// takeover: the standby warms up while its predecessor's in-flight
	// tasks resolve, and stranded sends are re-adopted by the dispatch
	// watchdog.
	for i := 0; i < len(drainedCordons) && i < len(promoted); i++ {
		r.st.Takeovers++
		r.takeovers.Inc()
		tr.Instant("reconcile.takeover", span,
			obs.Int("from", int(drainedCordons[i])),
			obs.Int("to", int(promoted[i])))
	}

	r.st.Actions += actions
	r.actions.Add(int64(actions))

	conv := r.convergedNow(target, cordonSet)
	r.st.Converged = conv
	if conv {
		if r.st.ConvergedRound == 0 {
			r.st.ConvergedRound = r.st.Rounds
		}
		r.converged.Set(1)
	} else {
		r.converged.Set(0)
	}
	tr.SetAttrInt(span, "actions", actions)
	tr.SetAttrInt(span, "active", active)
	tr.SetAttrInt(span, "target", target)
	tr.SetAttr(span, "converged", strconv.FormatBool(conv))
	tr.End(span)
}

// observeNode updates one satellite's revival bookkeeping and aligns its
// cordon mark with the spec.
func (r *Reconciler) observeNode(s *satellite.Satellite, wantCordon bool, now time.Duration, span obs.SpanID) {
	id := s.ID
	if wantCordon && !s.Cordoned() {
		r.m.Pool.Cordon(id)
	}
	if !wantCordon && s.Cordoned() && !r.draining[id] && s.State() != satellite.Down {
		// Dropped from the spec's cordon list while still up: return it to
		// the schedulable fleet. (DOWN satellites rejoin via promote, which
		// uncordons as part of Reinstate.)
		r.m.Pool.Uncordon(id)
	}
	c := r.ctl[id]
	if c == nil || !c.pendingRevive {
		return
	}
	switch s.State() {
	case satellite.Running, satellite.Busy:
		c.stable++
		if c.stable >= r.cfg.StableRounds {
			c.pendingRevive = false
			c.failures = 0
			c.backoff = r.cfg.BackoffBase
		}
	case satellite.Fault, satellite.Down:
		// Crash-looped: the revived node faulted again before stabilizing.
		c.pendingRevive = false
		c.stable = 0
		c.failures++
		c.notBefore = now + c.backoff
		c.backoff *= 2
		if c.backoff > backoffMax {
			c.backoff = backoffMax
		}
		if c.failures >= r.cfg.BreakerThreshold {
			c.failures = 0
			c.breakerUntil = now + r.cfg.BreakerCooldown
			r.st.BreakerOpens++
			r.breakerOpens.Inc()
			r.e.Tracer().Instant("reconcile.breaker_open", span, obs.Int("sat", int(id)))
		}
	case satellite.Unknown:
		// Probe still in flight; keep waiting.
	}
}

// promote revives one parked standby: Reinstate (DOWN → UNKNOWN,
// uncordoned) plus an out-of-cycle heartbeat probe. Backoff windows, an
// open breaker, and substrate-dead nodes (the out-of-band health check an
// RM's BMC/ping layer provides) all veto the attempt.
func (r *Reconciler) promote(s *satellite.Satellite, now time.Duration, span obs.SpanID) bool {
	id := s.ID
	c := r.ctlFor(id)
	if now < c.notBefore || now < c.breakerUntil {
		return false
	}
	if r.m.Cluster.Node(id).Failed() {
		return false
	}
	if !r.m.Pool.Reinstate(id) {
		return false
	}
	c.pendingRevive = true
	c.stable = 0
	r.m.ProbeSatellite(id)
	r.st.Promotes++
	r.promotes.Inc()
	r.e.Tracer().Instant("reconcile.promote", span, obs.Int("sat", int(id)))
	return true
}

// drainSat starts a graceful drain and tracks it to completion. The
// reconcile.drain span stays open across rounds until the drain resolves.
func (r *Reconciler) drainSat(s *satellite.Satellite) {
	id := s.ID
	tr := r.e.Tracer()
	dspan := tr.Start("reconcile.drain", 0, obs.Int("sat", int(id)))
	r.draining[id] = true
	r.st.Drains++
	r.drains.Inc()
	err := r.m.DrainSatellite(id, r.cfg.DrainDeadline, func(clean, delivered bool) {
		delete(r.draining, id)
		if !clean {
			r.st.DrainsForced++
			r.drainsForced.Inc()
		}
		tr.SetAttr(dspan, "clean", strconv.FormatBool(clean))
		tr.SetAttr(dspan, "delivered", strconv.FormatBool(delivered))
		tr.End(dspan)
	})
	if err != nil {
		// Drain refused (already draining — guarded above, so in practice
		// unreachable); release the slot rather than wedge it.
		delete(r.draining, id)
		tr.SetAttr(dspan, "error", err.Error())
		tr.End(dspan)
	}
}

// convergedNow checks the spec against the observed pool: every cordoned
// satellite DOWN, no drains pending, no probes unresolved, and exactly
// target schedulable satellites in service.
func (r *Reconciler) convergedNow(target int, cordonSet map[cluster.NodeID]bool) bool {
	if len(r.draining) > 0 {
		return false
	}
	pool := r.m.Pool
	for _, id := range r.spec.Cordoned {
		if s := pool.Get(id); s != nil && s.State() != satellite.Down {
			return false
		}
	}
	inService := 0
	for _, s := range pool.All() {
		if cordonSet[s.ID] {
			continue
		}
		switch s.State() {
		case satellite.Running, satellite.Busy:
			inService++
		case satellite.Unknown:
			return false
		}
	}
	return inService == target
}
