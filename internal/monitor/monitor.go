// Package monitor simulates the three-layer monitoring and diagnostic
// subsystem of the Tianhe HPC systems described in Section IV-C: Board
// Management Units (BMU), Chassis Management Units (CMU) and a System
// Management Unit (SMU), connected by a dedicated monitoring network,
// sampling 200+ hardware indicators (voltage, current, temperature,
// humidity, liquid/air cooling, NIC health, ...).
//
// The failure-prediction plugin (package predict) consumes only this
// package's alert stream, exactly as ESlurm consumes alerts from the real
// monitoring network — so any alert source with comparable precision
// exercises the same code path (see DESIGN.md, "Substitutions").
//
// Determinism: sampling sweeps, alert emission and gray-node noise all
// run as events on the cluster's engine with labeled RNG streams, so the
// alert sequence replays bit-identically from the seed.
package monitor

import (
	"fmt"
	"math/rand"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/satellite"
	"eslurm/internal/simnet"
)

// Severity classifies an alert.
type Severity int

const (
	// SevWarning indicates an indicator drifting out of its nominal band.
	SevWarning Severity = iota
	// SevCritical indicates an indicator past its critical threshold; the
	// node is expected to fail soon.
	SevCritical
	// SevFailure indicates the node has already failed (post-hoc report).
	SevFailure
)

func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	case SevFailure:
		return "failure"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Indicators returns the catalogue of monitored hardware indicators. The
// real subsystem tracks 200+; we name the families and synthesize the
// rest. A function rather than a package-level slice so the catalogue is
// never mutable shared state (globalmut); each Subsystem caches its own
// copy at construction.
func Indicators() []string {
	families := []string{
		"voltage", "current", "temperature", "humidity",
		"liquid-cooling", "air-cooling", "nic", "memory", "power-supply", "fan",
	}
	const perFamily = 21 // numbered .00 to .20
	// Every name is built into one string, "<family>.<two digits>", and
	// the catalogue slices it.
	var buf []byte
	for _, f := range families {
		for i := 0; i < perFamily; i++ {
			buf = append(append(buf, f...), '.', byte('0'+i/10), byte('0'+i%10))
		}
	}
	all := string(buf)
	out := make([]string, 0, len(families)*perFamily)
	for _, f := range families {
		for i := 0; i < perFamily; i++ {
			n := len(f) + 3
			out, all = append(out, all[:n]), all[n:]
		}
	}
	return out // 210 indicators
}

// Alert is one monitoring event delivered to subscribers at the SMU.
type Alert struct {
	Node      cluster.NodeID
	Indicator string
	Severity  Severity
	// BMU/CMU identify the management units that observed and relayed the
	// alert.
	BMU, CMU int
	At       time.Duration
}

// The management hierarchy and the alarm cadence: 8 nodes per board,
// 16 boards per chassis, a 5ms per-hop latency on the dedicated
// monitoring network (BMU→CMU→SMU), and a down node's alarm re-raised
// every 10 minutes (it keeps tripping its board's indicators) at most
// 288 times — two days, after which the operator is assumed to have
// silenced it.
const (
	nodesPerBMU    = 8
	bmusPerCMU     = 16
	relayLatency   = 5 * time.Millisecond
	repeatInterval = 10 * time.Minute
	maxRepeats     = 288
)

// Config parameterizes the monitoring subsystem.
type Config struct {
	// DetectionProb is the probability an impending failure produces a
	// pre-failure alert (predictor recall ceiling). Default 0.85 — the
	// paper reports 81.7% of failed nodes ending at leaves, which our
	// placement-exact rearranger maps directly to prediction recall.
	DetectionProb float64
	// LeadTime is the mean interval by which a pre-failure alert precedes
	// the failure. Default 10 minutes.
	LeadTime time.Duration
	// FalseAlertsPerNodeDay is the Poisson rate of spurious alerts per
	// node per day. The paper adopts "the principle of over-prediction":
	// false alerts only cost a leaf placement, never correctness.
	FalseAlertsPerNodeDay float64
}

func (c Config) withDefaults() Config {
	if c.DetectionProb == 0 {
		c.DetectionProb = 0.85
	}
	if c.LeadTime == 0 {
		c.LeadTime = 10 * time.Minute
	}
	return c
}

// Subsystem is the simulated monitoring network for one cluster.
type Subsystem struct {
	cfg        Config
	cluster    *cluster.Cluster
	engine     *simnet.Engine
	rng        *rand.Rand
	subs       []func(Alert)
	indicators []string

	alertsEmitted int
	falseAlerts   int
}

// New builds the monitoring subsystem over a cluster. If
// cfg.FalseAlertsPerNodeDay > 0 a background spurious-alert process starts
// immediately.
func New(c *cluster.Cluster, cfg Config) *Subsystem {
	s := &Subsystem{
		cfg:        cfg.withDefaults(),
		cluster:    c,
		engine:     c.Engine,
		rng:        c.Engine.Rand("monitor"),
		indicators: Indicators(),
	}
	if s.cfg.FalseAlertsPerNodeDay > 0 {
		s.startNoise()
	}
	return s
}

// Subscribe registers a callback for every alert reaching the SMU.
func (s *Subsystem) Subscribe(fn func(Alert)) { s.subs = append(s.subs, fn) }

// Units returns (bmuID, cmuID) for a node.
func (s *Subsystem) Units(id cluster.NodeID) (bmu, cmu int) {
	bmu = int(id) / nodesPerBMU
	cmu = bmu / bmusPerCMU
	return
}

// BMUCount returns the number of board management units covering the
// cluster.
func (s *Subsystem) BMUCount() int {
	return (s.cluster.Size() + nodesPerBMU - 1) / nodesPerBMU
}

// CMUCount returns the number of chassis management units.
func (s *Subsystem) CMUCount() int {
	return (s.BMUCount() + bmusPerCMU - 1) / bmusPerCMU
}

// AlertsEmitted returns total alerts delivered (including false alerts).
func (s *Subsystem) AlertsEmitted() int { return s.alertsEmitted }

// FalseAlerts returns the number of spurious alerts delivered.
func (s *Subsystem) FalseAlerts() int { return s.falseAlerts }

// emit relays an alert BMU → CMU → SMU and then fans it to subscribers.
func (s *Subsystem) emit(a Alert, spurious bool) {
	a.BMU, a.CMU = s.Units(a.Node)
	s.engine.After(2*relayLatency, func() {
		a.At = s.engine.Now()
		s.alertsEmitted++
		if spurious {
			s.falseAlerts++
		}
		for _, fn := range s.subs {
			fn(a)
		}
	})
}

// NoticeImpendingFailure informs the subsystem that node will fail at
// failAt (virtual time). With probability DetectionProb the indicators
// drift early enough to produce a SevCritical alert LeadTime (±50%,
// uniform) before the failure; otherwise only the post-hoc SevFailure
// alert fires at failAt. Experiment failure injectors call this alongside
// Cluster.ScheduleFailure.
func (s *Subsystem) NoticeImpendingFailure(node cluster.NodeID, failAt time.Duration) {
	ind := s.indicators[s.rng.Intn(len(s.indicators))]
	if s.rng.Float64() < s.cfg.DetectionProb {
		lead := time.Duration(float64(s.cfg.LeadTime) * (0.5 + s.rng.Float64()))
		at := failAt - lead
		if at < s.engine.Now() {
			at = s.engine.Now()
		}
		s.engine.Schedule(at, func() {
			s.emit(Alert{Node: node, Indicator: ind, Severity: SevCritical}, false)
		})
	}
	s.engine.Schedule(failAt, func() {
		s.emit(Alert{Node: node, Indicator: ind, Severity: SevFailure}, false)
		// Keep alarming while the node stays down (bounded, so permanent
		// failures cannot pin the event loop forever).
		repeats := 0
		var again func()
		again = func() {
			s.engine.After(repeatInterval, func() {
				if !s.cluster.Node(node).Failed() || repeats >= maxRepeats {
					return
				}
				repeats++
				s.emit(Alert{Node: node, Indicator: ind, Severity: SevFailure}, false)
				again()
			})
		}
		again()
	})
}

// ObservePool subscribes the subsystem to a satellite pool's health
// signal: Table II demotions re-enter the normal alert pipeline as
// "satellite.pool" alerts (FAULT → critical, DOWN → failure), so the same
// subscribers that watch hardware indicators also see the relay layer
// degrade. Opt-in — wiring it adds alert events to the trace, so default
// experiment paths leave it off. Chains with any OnChange observer
// already installed on the pool.
func (s *Subsystem) ObservePool(p *satellite.Pool) {
	prev := p.OnChange
	p.OnChange = func(sat *satellite.Satellite, from, to satellite.State, h satellite.Health) {
		if prev != nil {
			prev(sat, from, to, h)
		}
		switch to {
		case satellite.Fault:
			s.emit(Alert{Node: sat.ID, Indicator: "satellite.pool", Severity: SevCritical}, false)
		case satellite.Down:
			s.emit(Alert{Node: sat.ID, Indicator: "satellite.pool", Severity: SevFailure}, false)
		}
	}
}

// startNoise emits spurious warning alerts at the configured Poisson rate
// across the whole cluster.
func (s *Subsystem) startNoise() {
	ratePerSec := s.cfg.FalseAlertsPerNodeDay * float64(s.cluster.Size()) / 86400.0
	if ratePerSec <= 0 {
		return
	}
	var next func()
	next = func() {
		// Exponential inter-arrival.
		gap := time.Duration(s.rng.ExpFloat64() / ratePerSec * float64(time.Second))
		s.engine.After(gap, func() {
			node := cluster.NodeID(s.rng.Intn(s.cluster.Size()))
			ind := s.indicators[s.rng.Intn(len(s.indicators))]
			s.emit(Alert{Node: node, Indicator: ind, Severity: SevWarning}, true)
			next()
		})
	}
	next()
}
