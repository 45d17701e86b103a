package cluster

import (
	"strings"
	"testing"
	"time"

	"eslurm/internal/simnet"
)

// twoCell builds a 2-cell cluster: master+satellite on cell 0, computes
// on cell 1, jitter disabled for exact-time assertions.
func twoCell(net NetConfig) *Cluster {
	return New(simnet.NewEngine(7), Config{
		Computes:   4,
		Satellites: 1,
		Net:        net,
		Cells:      2,
		CellOf: func(id NodeID, role Role) int {
			if role == RoleCompute {
				return 1
			}
			return 0
		},
	})
}

func TestCrossCellSendDelivers(t *testing.T) {
	c := twoCell(NetConfig{Jitter: Disabled})
	comp := c.Computes()[0]
	var arrived, sent time.Duration
	c.Net.Transmit(c.Master().ID, comp, 1000, outcome{
		arrived: func() { arrived = c.EngineOf(comp).Now() },
		sent:    func() { sent = c.Engine.Now() },
	})
	c.RunUntil(time.Second)

	cfg := c.Net.Config()
	want := cfg.ConnectCost + c.Net.TransferTime(1000)
	if arrived != want {
		t.Errorf("arrived at %v, want %v", arrived, want)
	}
	// The acknowledgement is not modelled: the sender's half runs at the
	// delivery instant, as on one cell.
	if sent != want {
		t.Errorf("sender told at %v, want %v", sent, want)
	}
	if _, out := c.Master().Meter.Messages(); out != 1 {
		t.Errorf("master messages out = %d, want 1", out)
	}
	if in, _ := c.Node(comp).Meter.Messages(); in != 1 {
		t.Errorf("compute messages in = %d, want 1", in)
	}
	if s := c.Master().Meter.Sockets(); s != 0 {
		t.Errorf("master sockets = %d, want 0", s)
	}
	if s := c.Node(comp).Meter.Sockets(); s != 0 {
		t.Errorf("compute sockets = %d, want 0", s)
	}
}

func TestCrossCellSendFailStop(t *testing.T) {
	c := twoCell(NetConfig{Jitter: Disabled})
	comp := c.Computes()[1]
	c.ScheduleFailure(comp, time.Millisecond, 0)
	var failedAt time.Duration
	delivered := false
	// Send after the failure flip: fails at the sender with the connect
	// timeout, from the sender's own replica.
	c.Engine.Schedule(2*time.Millisecond, func() {
		c.Net.Send(c.Master().ID, comp, 100, func() { delivered = true }, func() { failedAt = c.Engine.Now() })
	})
	c.RunUntil(5 * time.Second)
	if delivered {
		t.Fatal("message to failed node delivered")
	}
	if want := 2*time.Millisecond + c.Net.Config().ConnectTimeout; failedAt != want {
		t.Errorf("failed at %v, want %v", failedAt, want)
	}
	if !c.Node(comp).Failed() || !c.FailedOn(comp, comp) {
		t.Error("fail flip did not reach every replica")
	}
}

// TestInFlightDeathTimesOutAtConnectTimeout: one answer to "the
// destination died in flight" for all traffic — connecting, persistent,
// same-cell and cross-cell: the sender is told at its connect timeout,
// counted from the send, and holds its connect socket until then.
func TestInFlightDeathTimesOutAtConnectTimeout(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cells      int
		persistent bool
	}{
		{"send/one-cell", 1, false},
		{"send/cross-cell", 2, false},
		{"persistent/one-cell", 1, true},
		{"persistent/cross-cell", 2, true},
	} {
		c := New(simnet.NewEngine(3), Config{
			Computes: 2, Satellites: 1, Net: NetConfig{Jitter: Disabled}, Cells: tc.cells,
			CellOf: func(id NodeID, role Role) int {
				if role == RoleCompute {
					return tc.cells - 1
				}
				return 0
			},
		})
		from, to := c.Master().ID, c.Computes()[0]
		// A 1 MiB message is ~700µs on the wire; the destination dies at 100µs.
		c.ScheduleFailure(to, 100*time.Microsecond, 0)
		var failedAt, midSockets = time.Duration(-1), -1
		delivered := false
		onFailed := func() { failedAt = c.Engine.Now() }
		if tc.persistent {
			c.Net.SendPersistent(from, to, 1<<20, func() { delivered = true }, onFailed)
		} else {
			c.Net.Send(from, to, 1<<20, func() { delivered = true }, onFailed)
		}
		c.Engine.Schedule(500*time.Millisecond, func() { midSockets = c.Master().Meter.Sockets() })
		c.RunUntil(5 * time.Second)
		if delivered {
			t.Errorf("%s: delivered to a node that died in flight", tc.name)
		}
		if want := c.Net.Config().ConnectTimeout; failedAt != want {
			t.Errorf("%s: onFailed at %v, want the connect timeout %v", tc.name, failedAt, want)
		}
		wantMid := 1
		if tc.persistent {
			wantMid = 0
		}
		if midSockets != wantMid {
			t.Errorf("%s: sender sockets while waiting = %d, want %d", tc.name, midSockets, wantMid)
		}
		if s := c.Master().Meter.Sockets(); s != 0 {
			t.Errorf("%s: sender sockets after the timeout = %d, want 0", tc.name, s)
		}
	}
}

// TestCrossCellPartitionsCompose: partitions sever, compose and heal the
// same on every replica.
func TestCrossCellPartitionsCompose(t *testing.T) {
	c := twoCell(NetConfig{Jitter: Disabled})
	comps := c.Computes()
	// All computes cut off for 100ms; the first one additionally for 300ms.
	c.Net.SchedulePartition(comps, time.Millisecond, 100*time.Millisecond)
	c.Net.SchedulePartition(comps[:1], time.Millisecond, 300*time.Millisecond)
	var out [4]string
	send := func(slot int, to NodeID, at time.Duration) {
		c.Engine.Schedule(at, func() {
			c.Net.Transmit(c.Master().ID, to, 100, outcome{
				sent:   func() { out[slot] = "sent" },
				failed: func() { out[slot] = "fail" },
			})
		})
	}
	send(0, comps[1], 2*time.Millisecond)   // inside both: fails
	send(1, comps[1], 200*time.Millisecond) // first partition healed: delivers
	send(2, comps[0], 200*time.Millisecond) // still inside the second: fails
	send(3, comps[0], 400*time.Millisecond) // both healed: delivers
	c.RunUntil(5 * time.Second)
	if want := [4]string{"fail", "sent", "fail", "sent"}; out != want {
		t.Fatalf("outcomes = %v, want %v", out, want)
	}
	if n := c.Net.PartitionCount(); n != 0 {
		t.Errorf("%d partitions still active after both heals", n)
	}
}

// TestGrayFactorFromTheViewersReplica: every cell answers gray queries
// from its own replica, and all replicas agree once the flip has run.
func TestGrayFactorFromTheViewersReplica(t *testing.T) {
	c := twoCell(NetConfig{})
	comp := c.Computes()[2]
	c.Net.ScheduleGray(comp, 4, time.Millisecond, 10*time.Millisecond)
	var during, after float64
	c.EngineOf(comp).Schedule(5*time.Millisecond, func() { during = c.Net.GrayFactorOn(comp, comp) })
	c.EngineOf(comp).Schedule(20*time.Millisecond, func() { after = c.Net.GrayFactorOn(comp, comp) })
	c.RunUntil(6 * time.Millisecond)
	if g := c.Net.GrayFactor(comp); g != 4 {
		t.Errorf("control cell sees gray factor %v at 6ms, want 4", g)
	}
	c.RunUntil(time.Second)
	if during != 4 || after != 1 {
		t.Errorf("home cell saw gray factor %v during and %v after, want 4 and 1", during, after)
	}
}

// TestMidRunMutationPanics: replicas may only be flipped by events
// pre-scheduled from an idle point; an immediate mutation from inside an
// event on a multi-cell cluster would reach the other cells' replicas at
// whatever instant their clocks happen to stand at inside the window.
func TestMidRunMutationPanics(t *testing.T) {
	for name, mutate := range map[string]func(c *Cluster){
		"Fail":            func(c *Cluster) { c.Fail(c.Computes()[0]) },
		"SetGray":         func(c *Cluster) { c.Net.SetGray(c.Computes()[0], 3) },
		"Partition":       func(c *Cluster) { c.Net.Partition(c.Computes()[:2], 0) },
		"ScheduleFailure": func(c *Cluster) { c.ScheduleFailure(c.Computes()[0], time.Second, 0) },
	} {
		c := twoCell(NetConfig{})
		c.Engine.Schedule(time.Millisecond, func() { mutate(c) })
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			c.RunUntil(time.Second)
			return
		}()
		for _, want := range []string{"inside an event", "ScheduleFailure", "ScheduleGray", "SchedulePartition"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s from inside an event: panic %q does not mention %q", name, msg, want)
			}
		}
	}
	// The same calls are fine while the group is idle, and from inside an
	// event on one cell.
	c := twoCell(NetConfig{})
	c.RunUntil(time.Millisecond)
	c.Fail(c.Computes()[0])
	if !c.FailedOn(c.Computes()[1], c.Computes()[0]) {
		t.Error("idle Fail did not reach the compute cell's replica")
	}
	one := New(simnet.NewEngine(1), Config{Computes: 2})
	one.Engine.Schedule(time.Millisecond, func() { one.Fail(one.Computes()[0]) })
	one.Run()
	if !one.Node(one.Computes()[0]).Failed() {
		t.Error("mid-run Fail on a one-cell cluster did not take")
	}
}

// TestStormAcrossCells runs an adversarial traffic storm (loss,
// duplication, jitter, faults, gray nodes, partitions) over four cells:
// both outcomes occur, every socket drains, and a rerun executes the same
// event stream.
func TestStormAcrossCells(t *testing.T) {
	run := func() (uint64, uint64) {
		c := New(simnet.NewEngine(11), Config{
			Computes:   192,
			Satellites: 2,
			Net:        NetConfig{LossProb: 0.1, DupProb: 0.1},
			Cells:      4,
			CellOf: func(id NodeID, role Role) int {
				if role != RoleCompute {
					return 0
				}
				return 1 + int(id)%3
			},
		})
		c.Group().EnableDigest()
		comps := c.Computes()
		c.ScheduleFailure(comps[3], 5*time.Millisecond, 20*time.Millisecond)
		c.Net.ScheduleGray(comps[5], 4.0, time.Millisecond, 0)
		c.Net.SchedulePartition(comps[6:9], 10*time.Millisecond, 30*time.Millisecond)
		var sent, failed int
		master := c.Master().ID
		for round := 0; round < 6; round++ {
			at := time.Duration(round+1) * 4 * time.Millisecond
			c.Engine.Schedule(at, func() {
				for _, id := range comps {
					id := id
					c.Net.Transmit(master, id, 512, outcome{
						// The receiver answers over the same substrate.
						arrived: func() { c.Net.Send(id, master, 64, nil, nil) },
						sent:    func() { sent++ },
						failed:  func() { failed++ },
					})
				}
			})
		}
		c.RunUntil(10 * time.Second)
		if sent == 0 || failed == 0 {
			t.Fatalf("storm resolved %d sent / %d failed, want both > 0", sent, failed)
		}
		for _, id := range append(comps, master) {
			if s := c.Node(id).Meter.Sockets(); s != 0 {
				t.Errorf("node %d holds %d sockets after the drain", id, s)
			}
		}
		return c.Group().Digest(), c.Group().Processed()
	}
	refD, refP := run()
	if d, p := run(); d != refD || p != refP {
		t.Errorf("rerun digest/processed %#x/%d, want %#x/%d", d, p, refD, refP)
	}
}

// TestOneCellGroupMatchesTheBareEngine: driving a one-cell cluster
// through its group's windowed protocol executes the same (at, seq) stream
// as running its engine directly.
func TestOneCellGroupMatchesTheBareEngine(t *testing.T) {
	run := func(windowed bool) (uint64, uint64) {
		c := New(simnet.NewEngine(5), Config{Computes: 16, Satellites: 1, Net: NetConfig{LossProb: 0.1, DupProb: 0.1}, Cells: 1})
		c.Group().EnableDigest()
		c.ScheduleFailure(c.Computes()[2], 300*time.Microsecond, time.Second)
		for _, id := range c.Computes() {
			id := id
			c.Net.Send(c.Master().ID, id, 4096, func() { c.Net.Send(id, c.Master().ID, 64, nil, nil) }, nil)
		}
		if windowed {
			c.Group().RunUntil(10 * time.Second)
		} else {
			c.Engine.RunUntil(10 * time.Second)
		}
		return c.Group().Digest(), c.Engine.Processed()
	}
	d1, p1 := run(false)
	d2, p2 := run(true)
	if d1 != d2 || p1 != p2 {
		t.Errorf("windowed digest/processed %#x/%d, bare engine %#x/%d", d2, p2, d1, p1)
	}
}
