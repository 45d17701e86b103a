package faults

import (
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/monitor"
	"eslurm/internal/simnet"
	"eslurm/internal/topo"
)

func newCampaign(seed int64, computes int, silent float64) (*simnet.Engine, *cluster.Cluster, *Campaign) {
	e := simnet.NewEngine(seed)
	c := cluster.New(e, cluster.Config{Computes: computes})
	sub := monitor.New(c, monitor.Config{DetectionProb: 1.0})
	return e, c, New(c, sub, silent)
}

func TestBackgroundRate(t *testing.T) {
	e, c, cp := newCampaign(1, 1000, 0)
	cp.Background(6, 10*24*time.Hour, time.Hour, 2*time.Hour)
	// ~6/day over 10 days.
	if n := len(cp.Events); n < 35 || n > 90 {
		t.Fatalf("events = %d, want ~60", n)
	}
	e.RunUntil(24 * time.Hour)
	if c.FailedCount() == 0 {
		t.Error("no failures materialized in day 1")
	}
	// All failures recover within their window.
	e.RunUntil(13 * 24 * time.Hour)
	if c.FailedCount() != 0 {
		t.Errorf("%d nodes still down after the horizon", c.FailedCount())
	}
}

func TestBurst(t *testing.T) {
	e, c, cp := newCampaign(2, 2048, 0)
	cp.Burst(time.Hour, 600, 6*time.Hour)
	if cp.NodesAffected() != 600 {
		t.Fatalf("affected = %d, want 600", cp.NodesAffected())
	}
	e.RunUntil(2 * time.Hour)
	if got := c.FailedCount(); got != 600 {
		t.Fatalf("down at t=2h: %d", got)
	}
	e.RunUntil(8 * time.Hour)
	if c.FailedCount() != 0 {
		t.Error("burst did not recover")
	}
}

func TestBurstClampsToClusterSize(t *testing.T) {
	_, _, cp := newCampaign(3, 10, 0)
	cp.Burst(time.Minute, 100, time.Hour)
	if cp.NodesAffected() != 10 {
		t.Fatalf("affected = %d, want clamp to 10", cp.NodesAffected())
	}
}

func TestRackOutage(t *testing.T) {
	e, c, cp := newCampaign(4, 1536, 0) // 3 racks of 512
	tp := topo.Default()
	n := cp.RackOutage(tp, 1, time.Hour, 2*time.Hour)
	if n == 0 {
		t.Fatal("rack outage hit no nodes")
	}
	e.RunUntil(90 * time.Minute)
	for _, id := range c.Computes() {
		failed := c.Node(id).Failed()
		inRack := tp.Rack(id) == 1
		if failed != inRack {
			t.Fatalf("node %d: failed=%v inRack=%v", id, failed, inRack)
		}
	}
	if len(cp.Events) != n {
		t.Fatalf("outage recorded %d events, want %d", len(cp.Events), n)
	}
	for _, ev := range cp.Events {
		if tp.Rack(ev.Node) != 1 {
			t.Errorf("outage event on node %d of rack %d, want rack 1", ev.Node, tp.Rack(ev.Node))
		}
	}
}

func TestSilentFraction(t *testing.T) {
	e, _, cp := newCampaign(5, 2000, 0.3)
	cp.Burst(time.Hour, 1000, time.Hour)
	frac := float64(cp.SilentCount()) / float64(len(cp.Events))
	if frac < 0.22 || frac > 0.38 {
		t.Fatalf("silent fraction = %.3f, want ~0.3", frac)
	}
	_ = e
}

func TestNilMonitorAllSilent(t *testing.T) {
	e := simnet.NewEngine(6)
	c := cluster.New(e, cluster.Config{Computes: 50})
	cp := New(c, nil, 0)
	cp.Burst(time.Minute, 10, time.Hour)
	if cp.SilentCount() != 10 {
		t.Fatalf("silent = %d, want all 10", cp.SilentCount())
	}
}
