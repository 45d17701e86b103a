// Package predict defines the failure-prediction plugin interface of
// Section IV-C and its implementations.
//
// The paper implements failure-node prediction "as a plugin" so more
// advanced techniques can be integrated; the default Tianhe plugin simply
// marks a node as predicted-failed once any alert arrives from the
// monitoring subsystem ("the principle of over-prediction" — a wrong
// prediction only demotes a healthy node to a leaf slot, it never affects
// the node's state or performance).
//
// Determinism: predictors react only to the monitor's alert stream and
// the engine's virtual clock, so the predicted set evolves identically on
// every same-seed replay.
package predict

import (
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/monitor"
	"eslurm/internal/obs"
	"eslurm/internal/simnet"
)

// Predictor is the plugin interface: given a node, report whether it is
// expected to fail. FP-Tree construction calls this once per participant.
type Predictor interface {
	// Predicted reports whether the node is currently expected to fail.
	Predicted(id cluster.NodeID) bool
	// PredictedCount returns the current size of the predicted set (for
	// reporting; implementations without a materialized set may return -1).
	PredictedCount() int
}

// Null never predicts a failure. FP-Tree with a Null predictor degenerates
// to the plain k-ary tree, which is the "w/o FP-Tree" ablation of Fig. 8a.
type Null struct{}

// Predicted always returns false.
func (Null) Predicted(cluster.NodeID) bool { return false }

// PredictedCount is always zero.
func (Null) PredictedCount() int { return 0 }

// Static predicts exactly the nodes in its set. Used in tests and in
// experiments that control the predicted set directly.
type Static map[cluster.NodeID]bool

// Predicted reports set membership.
func (s Static) Predicted(id cluster.NodeID) bool { return s[id] }

// PredictedCount returns the set size.
func (s Static) PredictedCount() int { return len(s) }

// Oracle predicts precisely the nodes that are currently failed — an upper
// bound for ablation studies (perfect detection, zero lead time).
type Oracle struct{ Cluster *cluster.Cluster }

// Predicted reports whether the node is failed right now.
func (o Oracle) Predicted(id cluster.NodeID) bool { return o.Cluster.Node(id).Failed() }

// PredictedCount returns the live failed-node count.
func (o Oracle) PredictedCount() int { return o.Cluster.FailedCount() }

// AlertDriven is the paper's production predictor: it subscribes to the
// monitoring subsystem and marks a node predicted-failed from the moment
// any alert about it arrives until TTL elapses without further alerts (a
// node that recovered and stays quiet eventually leaves the set).
type AlertDriven struct {
	engine *simnet.Engine
	ttl    time.Duration

	predicted map[cluster.NodeID]time.Duration // node -> expiry
	alerts    int
}

// NewAlertDriven subscribes to sub and returns the predictor. A ttl of 0
// defaults to 30 minutes.
func NewAlertDriven(e *simnet.Engine, sub *monitor.Subsystem, ttl time.Duration) *AlertDriven {
	if ttl == 0 {
		ttl = 30 * time.Minute
	}
	p := &AlertDriven{
		engine:    e,
		ttl:       ttl,
		predicted: make(map[cluster.NodeID]time.Duration),
	}
	alerts := e.Metrics().Counter("predict.alerts")
	sub.Subscribe(func(a monitor.Alert) {
		p.alerts++
		alerts.Inc()
		e.Tracer().Instant("predict.alert", 0, obs.Int("node", int(a.Node)))
		p.predicted[a.Node] = e.Now() + p.ttl
	})
	return p
}

// Predicted reports whether the node has a live (unexpired) alert.
func (p *AlertDriven) Predicted(id cluster.NodeID) bool {
	exp, ok := p.predicted[id]
	if !ok {
		return false
	}
	if p.engine.Now() > exp {
		delete(p.predicted, id)
		return false
	}
	return true
}

// PredictedCount returns the number of live predictions, pruning expired
// entries as a side effect.
func (p *AlertDriven) PredictedCount() int {
	now := p.engine.Now()
	for id, exp := range p.predicted {
		if now > exp {
			delete(p.predicted, id)
		}
	}
	return len(p.predicted)
}

// AlertsSeen returns the total number of alerts consumed.
func (p *AlertDriven) AlertsSeen() int { return p.alerts }
