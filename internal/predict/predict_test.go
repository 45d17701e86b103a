package predict

import (
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/monitor"
	"eslurm/internal/simnet"
)

func TestNull(t *testing.T) {
	var p Null
	if p.Predicted(3) || p.PredictedCount() != 0 {
		t.Error("Null predictor must predict nothing")
	}
}

func TestStatic(t *testing.T) {
	p := Static{5: true}
	if !p.Predicted(5) || p.Predicted(6) {
		t.Error("Static membership wrong")
	}
	if p.PredictedCount() != 1 {
		t.Error("count wrong")
	}
}

func TestOracle(t *testing.T) {
	e := simnet.NewEngine(1)
	c := cluster.New(e, cluster.Config{Computes: 10})
	p := Oracle{Cluster: c}
	id := c.Computes()[3]
	if p.Predicted(id) {
		t.Error("healthy node predicted")
	}
	c.Fail(id)
	if !p.Predicted(id) {
		t.Error("failed node not predicted")
	}
	if p.PredictedCount() != 1 {
		t.Error("count wrong")
	}
}

func TestAlertDrivenLifecycle(t *testing.T) {
	e := simnet.NewEngine(3)
	c := cluster.New(e, cluster.Config{Computes: 100})
	sub := monitor.New(c, monitor.Config{DetectionProb: 1.0})
	p := NewAlertDriven(e, sub, 30*time.Minute)

	node := c.Computes()[7]
	sub.NoticeImpendingFailure(node, time.Hour)
	e.RunUntil(time.Hour + time.Minute)

	if !p.Predicted(node) {
		t.Fatal("node with live alert not predicted")
	}
	if p.AlertsSeen() < 1 {
		t.Error("no alerts consumed")
	}
	if p.PredictedCount() != 1 {
		t.Errorf("PredictedCount = %d", p.PredictedCount())
	}
	// After TTL with no further alerts the prediction expires.
	e.RunUntil(2 * time.Hour)
	if p.Predicted(node) {
		t.Error("prediction did not expire after TTL")
	}
	if p.PredictedCount() != 0 {
		t.Errorf("PredictedCount after expiry = %d", p.PredictedCount())
	}
}

func TestAlertDrivenPreFailurePrediction(t *testing.T) {
	// The whole point of FP-Tree: the node is predicted BEFORE it fails.
	e := simnet.NewEngine(4)
	c := cluster.New(e, cluster.Config{Computes: 50})
	sub := monitor.New(c, monitor.Config{DetectionProb: 1.0, LeadTime: 10 * time.Minute})
	p := NewAlertDriven(e, sub, time.Hour)
	node := c.Computes()[0]
	failAt := 2 * time.Hour
	sub.NoticeImpendingFailure(node, failAt)
	c.ScheduleFailure(node, failAt, 0)
	// Check 1 minute before the failure.
	e.RunUntil(failAt - time.Minute)
	if c.Node(node).Failed() {
		t.Fatal("node failed too early")
	}
	if !p.Predicted(node) {
		t.Fatal("node not predicted before failure despite critical alert")
	}
}
