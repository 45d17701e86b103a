package comm

import (
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/simnet"
)

// threeCells builds a 3-cell cluster: control plane on cell 0, computes
// striped across cells 1 and 2, so every tree has parent→child links both
// inside a cell and across cells.
func threeCells(computes int, seed int64, net cluster.NetConfig) *cluster.Cluster {
	return cluster.New(simnet.NewEngine(seed), cluster.Config{
		Computes:   computes,
		Satellites: 2,
		Net:        net,
		Cells:      3,
		CellOf: func(id cluster.NodeID, role cluster.Role) int {
			if role != cluster.RoleCompute {
				return 0
			}
			return 1 + int(id)%2
		},
	})
}

func everyStructure() []Structure {
	return []Structure{Star{}, Ring{}, SharedMem{}, KTree{Width: 4}, FPTree{Width: 4}, Binomial{}, GatherTree{Width: 4}}
}

// TestEveryStructureAcrossCells: each structure, unchanged, delivers to
// every target of a multi-cell cluster, routes around a dead relay, and
// leaves no chain or socket behind.
func TestEveryStructureAcrossCells(t *testing.T) {
	for _, s := range everyStructure() {
		c := threeCells(30, 5, cluster.NetConfig{})
		comps := c.Computes()
		c.ScheduleFailure(comps[0], time.Millisecond, 0) // first relay of every ordered structure
		b := NewBroadcaster(c)
		b.RecordResolved = true
		var res Result
		got := false
		c.Engine.Schedule(10*time.Millisecond, func() {
			s.Broadcast(b, c.Master().ID, comps, 1024, func(r Result) { res, got = r, true })
		})
		c.RunUntil(10 * time.Minute)
		if !got {
			t.Fatalf("%s: broadcast never finished", s.Name())
		}
		assertPartition(t, s.Name(), comps, res)
		if res.Delivered != 29 || len(res.Unreachable) != 1 || res.Unreachable[0] != comps[0] {
			t.Errorf("%s: delivered=%d unreachable=%v, want 29 and [%d]", s.Name(), res.Delivered, res.Unreachable, comps[0])
		}
		if _, isShared := s.(SharedMem); !isShared && res.Retries == 0 {
			t.Errorf("%s: no retries recorded against the failed node", s.Name())
		}
		if res.DeliveredElapsed <= 0 || res.Elapsed < res.DeliveredElapsed {
			t.Errorf("%s: elapsed=%v deliveredElapsed=%v inconsistent", s.Name(), res.Elapsed, res.DeliveredElapsed)
		}
		if n := b.OutstandingSends(); n != 0 {
			t.Errorf("%s: outstanding sends = %d after drain, want 0", s.Name(), n)
		}
		for id := cluster.NodeID(0); int(id) < c.Size(); id++ {
			if sk := c.Node(id).Meter.Sockets(); sk != 0 {
				t.Errorf("%s: node %d holds %d sockets after drain", s.Name(), id, sk)
			}
		}
	}
}

// TestDuplicatesDedupAtTheReceiver: with every message duplicated, a relay
// still forwards once — each target receives the payload from its parent
// exactly twice (original + duplicate), never more.
func TestDuplicatesDedupAtTheReceiver(t *testing.T) {
	c := threeCells(40, 9, cluster.NetConfig{DupProb: 1})
	comps := c.Computes()
	b := NewBroadcaster(c)
	var res Result
	KTree{Width: 3}.Broadcast(b, c.Master().ID, comps, 512, func(r Result) { res = r })
	c.RunUntil(time.Minute)
	if res.Delivered != 40 || res.Messages != 40 {
		t.Fatalf("delivered=%d messages=%d, want 40/40: a duplicate was forwarded", res.Delivered, res.Messages)
	}
	for _, id := range comps {
		if in, _ := c.Node(id).Meter.Messages(); in != 2 {
			t.Errorf("node %d received %d messages, want 2 (payload + its duplicate)", id, in)
		}
	}
}

// TestGrayRelayDelayFromItsOwnReplica: a gray relay on a compute cell pays
// its inflated relay cost, read from its own cell's replica.
func TestGrayRelayDelayFromItsOwnReplica(t *testing.T) {
	elapsed := func(gray bool) time.Duration {
		c := threeCells(12, 3, cluster.NetConfig{Jitter: cluster.Disabled})
		comps := c.Computes()
		if gray {
			c.Net.ScheduleGray(comps[0], 50, time.Millisecond, 0)
		}
		b := NewBroadcaster(c)
		var res Result
		c.Engine.Schedule(10*time.Millisecond, func() {
			Ring{}.Broadcast(b, c.Master().ID, comps[:3], 512, func(r Result) { res = r })
		})
		c.RunUntil(time.Minute)
		if res.Delivered != 3 {
			t.Fatalf("gray=%v: delivered %d/3", gray, res.Delivered)
		}
		return res.DeliveredElapsed
	}
	base, slow := elapsed(false), elapsed(true)
	if slow < base+40*200*time.Microsecond { // 49 extra RelayOverheads
		t.Errorf("gray relay chain took %v vs healthy %v: the relay's slowdown was not read", slow, base)
	}
}

// TestRetryOverlapsFirstAttemptsArrival: a cross-cell destination gray
// enough that its delivery time passes ConnectTimeout dies while the
// message is in flight. At the delivery instant the sender's half finds it
// unreachable with no timeout left to wait, so the retry launches in the
// very window in which the destination's cell runs the first attempt's
// arrive half: the two attempts must not share a wire record.
func TestRetryOverlapsFirstAttemptsArrival(t *testing.T) {
	for _, s := range []Structure{Star{}, KTree{Width: 4}} {
		c := threeCells(16, 17, cluster.NetConfig{Jitter: cluster.Disabled})
		comps := c.Computes()
		slow := comps[0] // a first-layer relay of the tree, on a compute cell
		c.Net.ScheduleGray(slow, 3000, time.Millisecond, 0)
		c.ScheduleFailure(slow, 500*time.Millisecond, 0)
		b := NewBroadcaster(c)
		var res Result
		got := false
		c.Engine.Schedule(10*time.Millisecond, func() {
			if d := c.Net.TransferTime(1024) + c.Net.Config().ConnectCost; time.Duration(3000*float64(d)) < c.Net.Config().ConnectTimeout {
				t.Errorf("test setup: a %v delivery slowed 3000x does not reach the connect timeout", d)
			}
			s.Broadcast(b, c.Master().ID, comps, 1024, func(r Result) { res, got = r, true })
		})
		c.RunUntil(10 * time.Minute)
		if !got {
			t.Fatalf("%s: broadcast never finished", s.Name())
		}
		if res.Delivered+len(res.Unreachable) != len(comps) {
			t.Errorf("%s: delivered %d + unreachable %d != %d targets", s.Name(), res.Delivered, len(res.Unreachable), len(comps))
		}
		if len(res.Unreachable) != 1 || res.Unreachable[0] != slow {
			t.Errorf("%s: unreachable = %v, want [%d]", s.Name(), res.Unreachable, slow)
		}
		if res.Retries != b.Retries-1 {
			t.Errorf("%s: %d retries, want %d against the one dead node", s.Name(), res.Retries, b.Retries-1)
		}
		if n := b.OutstandingSends(); n != 0 {
			t.Errorf("%s: outstanding sends = %d after drain, want 0", s.Name(), n)
		}
	}
}

// TestBroadcastAcrossCellsWithRetries: under an adversarial network with a
// retry policy, a relay structure, the gather and a ring deliver across
// cells, retry, record spans whose parent ran on another cell, and rerun
// to the same digest, Result, metrics and spans.
func TestBroadcastAcrossCellsWithRetries(t *testing.T) {
	for _, s := range []Structure{KTree{Width: 4}, GatherTree{Width: 4}, Ring{}} {
		run := func() (uint64, Result, string, string) {
			c := threeCells(600, 13, cluster.NetConfig{LossProb: 0.05, DupProb: 0.05})
			c.Group().EnableDigest()
			c.Group().EnableTracing()
			comps := c.Computes()
			c.ScheduleFailure(comps[7], 5*time.Millisecond, 0)
			b := NewBroadcaster(c)
			b.RecordResolved = true
			b.Retry = &RetryPolicy{MaxAttempts: 4, Backoff: 20 * time.Millisecond, JitterFrac: 0.5, Deadline: 10 * time.Second}
			var res Result
			c.Engine.Schedule(10*time.Millisecond, func() {
				s.Broadcast(b, c.Master().ID, comps, 2048, func(r Result) { res = r })
			})
			c.RunUntil(10 * time.Minute)
			var metrics, spans strings.Builder
			if err := c.Group().MergedMetrics().WriteText(&metrics); err != nil {
				t.Fatal(err)
			}
			for _, tr := range c.Group().CellTracers() {
				if err := tr.WriteText(&spans); err != nil {
					t.Fatal(err)
				}
			}
			return c.Group().Digest(), res, metrics.String(), spans.String()
		}
		refD, refR, refM, refS := run()
		if refR.Delivered == 0 || refR.Retries == 0 {
			t.Fatalf("%s: delivered %d with %d retries", s.Name(), refR.Delivered, refR.Retries)
		}
		if !strings.Contains(refS, "xparent=c0.") {
			t.Errorf("%s: no span recorded a cross-cell parent", s.Name())
		}
		d, r, m, sp := run()
		if d != refD || r.Delivered != refR.Delivered || r.Messages != refR.Messages ||
			r.Retries != refR.Retries || r.Elapsed != refR.Elapsed ||
			r.DeliveredElapsed != refR.DeliveredElapsed || m != refM || sp != refS {
			t.Errorf("%s: rerun diverged: digest %#x vs %#x, result %+v vs %+v", s.Name(), d, refD, r, refR)
		}
	}
}
