package cluster

import (
	"testing"
	"time"

	"eslurm/internal/simnet"
)

// outcome is an Outcome made of three optional callbacks.
type outcome struct{ arrived, sent, failed func() }

func (o outcome) Arrived() { call(o.arrived) }
func (o outcome) Sent()    { call(o.sent) }
func (o outcome) Failed()  { call(o.failed) }

func call(fn func()) {
	if fn != nil {
		fn()
	}
}

func newNetCluster(t *testing.T, computes int, net NetConfig) *Cluster {
	t.Helper()
	e := simnet.NewEngine(13)
	return New(e, Config{Computes: computes, Satellites: 1, Net: net})
}

// TestNetConfigZeroTakesDefaults is the regression test for the
// withDefaults zero-value ambiguity: a zero NetConfig must resolve to the
// documented calibration, field for field.
func TestNetConfigZeroTakesDefaults(t *testing.T) {
	if got, want := (NetConfig{}).withDefaults(), DefaultNetConfig(); got != want {
		t.Fatalf("NetConfig{}.withDefaults() = %+v, want %+v", got, want)
	}
}

// TestNetConfigDisabledSentinel pins the Disabled semantics: a sentinel
// duration becomes an explicit zero cost instead of silently taking the
// default, while explicit non-zero values pass through untouched.
func TestNetConfigDisabledSentinel(t *testing.T) {
	cfg := NetConfig{
		ConnectCost:    Disabled,
		Latency:        Disabled,
		ConnectTimeout: 2 * time.Second,
		Jitter:         Disabled,
		BandwidthBps:   1e9,
	}.withDefaults()
	if cfg.ConnectCost != 0 || cfg.Latency != 0 || cfg.Jitter != 0 {
		t.Errorf("Disabled fields not zeroed: %+v", cfg)
	}
	if cfg.ConnectTimeout != 2*time.Second {
		t.Errorf("explicit ConnectTimeout overridden: %v", cfg.ConnectTimeout)
	}
	if cfg.BandwidthBps != 1e9 {
		t.Errorf("explicit bandwidth overridden: %v", cfg.BandwidthBps)
	}
	// Probabilities clamp into [0,1] rather than erroring.
	p := NetConfig{LossProb: -0.5, DupProb: 1.5}.withDefaults()
	if p.LossProb != 0 || p.DupProb != 1 {
		t.Errorf("probability clamp: loss=%v dup=%v", p.LossProb, p.DupProb)
	}
}

// TestLossLooksLikeDeadPeer: a lost message costs the sender exactly the
// connect timeout, indistinguishable from a fail-stopped receiver.
func TestLossLooksLikeDeadPeer(t *testing.T) {
	c := newNetCluster(t, 2, NetConfig{LossProb: 1})
	a, b := c.Computes()[0], c.Computes()[1]
	delivered := false
	var failedAt time.Duration
	c.Net.Send(a, b, 100, func() { delivered = true }, func() { failedAt = c.Engine.Now() })
	c.Engine.Run()
	if delivered {
		t.Fatal("message delivered with LossProb=1")
	}
	if failedAt != c.Net.Config().ConnectTimeout {
		t.Fatalf("loss reported at %v, want the connect timeout %v", failedAt, c.Net.Config().ConnectTimeout)
	}
}

// TestDupDeliversTwice: with DupProb=1 the payload lands twice — the
// delivery callback fires twice, which is exactly why receivers (the comm
// layer's arrived guard) must be idempotent — while the sender is told
// once.
func TestDupDeliversTwice(t *testing.T) {
	c := newNetCluster(t, 2, NetConfig{DupProb: 1})
	a, b := c.Computes()[0], c.Computes()[1]
	arrivals, acks := 0, 0
	c.Net.Transmit(a, b, 100, outcome{func() { arrivals++ }, func() { acks++ }, func() { t.Error("send failed") }})
	c.Engine.Run()
	if arrivals != 2 {
		t.Errorf("receiver saw %d arrivals, want 2 (receivers dedup)", arrivals)
	}
	if acks != 1 {
		t.Errorf("sender told %d times, want 1", acks)
	}
	if in, _ := c.Node(b).Meter.Messages(); in != 2 {
		t.Errorf("receiver counted %d messages, want 2", in)
	}
}

// TestGrayNodeSlowsDelivery: a gray node stays alive but every message
// touching it is slower by its factor.
func TestGrayNodeSlowsDelivery(t *testing.T) {
	timed := func(gray float64) time.Duration {
		c := newNetCluster(t, 2, NetConfig{Jitter: Disabled})
		a, b := c.Computes()[0], c.Computes()[1]
		if gray > 1 {
			c.Net.SetGray(b, gray)
		}
		var at time.Duration
		c.Net.Send(a, b, 100000, func() { at = c.Engine.Now() }, func() { t.Error("send failed") })
		c.Engine.Run()
		if at == 0 {
			t.Fatal("no delivery")
		}
		return at
	}
	base, slow := timed(1), timed(4)
	if slow <= base {
		t.Fatalf("gray receiver not slower: %v vs %v", slow, base)
	}
	c := newNetCluster(t, 2, NetConfig{})
	c.Net.SetGray(c.Computes()[0], 3)
	if c.Node(c.Computes()[0]).Failed() {
		t.Error("gray node reported failed")
	}
	c.Net.ClearGray(c.Computes()[0])
	if c.Net.GrayCount() != 0 {
		t.Errorf("GrayCount = %d after clear", c.Net.GrayCount())
	}
}

// TestPartitionSeversAndHealsSends: sends across a partition boundary fail
// like sends to a dead node; members keep talking to each other, and the
// boundary opens again after heal.
func TestPartitionSeversAndHealsSends(t *testing.T) {
	c := newNetCluster(t, 4, NetConfig{})
	in1, in2, out := c.Computes()[0], c.Computes()[1], c.Computes()[2]
	c.Net.Partition([]NodeID{in1, in2}, time.Minute)

	okInside, failAcross := false, false
	c.Net.Send(in1, in2, 100, func() { okInside = true }, func() { t.Error("intra-partition send failed") })
	c.Net.Send(in1, out, 100, func() { t.Error("cross-partition send delivered") }, func() { failAcross = true })
	c.Engine.RunUntil(30 * time.Second)
	if !okInside || !failAcross {
		t.Fatalf("okInside=%v failAcross=%v", okInside, failAcross)
	}
	if c.Node(out).Failed() || c.Node(in1).Failed() {
		t.Fatal("partition marked a node failed")
	}

	c.Engine.RunUntil(2 * time.Minute) // heal fires at 1m
	healed := false
	c.Net.Send(in1, out, 100, func() { healed = true }, func() { t.Error("send failed after heal") })
	c.Engine.Run()
	if !healed {
		t.Fatal("boundary still severed after heal")
	}
	if c.Net.PartitionCount() != 0 {
		t.Fatalf("PartitionCount = %d after heal", c.Net.PartitionCount())
	}
}

// TestGrayOnSeveredMemberAndHealAll pins the fault-model interplay the
// reconciler leans on: marking a partition-severed member gray keeps the
// boundary severed (gray slows, partition cuts — the stronger fault
// wins), gray still slows intra-partition traffic, and HealAll restores
// the boundary while leaving the gray degradation in place until it is
// cleared independently.
func TestGrayOnSeveredMemberAndHealAll(t *testing.T) {
	c := newNetCluster(t, 4, NetConfig{Jitter: Disabled})
	in1, in2, out := c.Computes()[0], c.Computes()[1], c.Computes()[2]
	// Baseline intra-pair latency before any fault.
	var healthy time.Duration
	start := c.Engine.Now()
	c.Net.Send(in1, in2, 100000, func() { healthy = c.Engine.Now() - start }, func() { t.Error("baseline send failed") })
	c.Engine.Run()

	c.Net.Partition([]NodeID{in1, in2}, time.Hour)
	c.Net.SetGray(in2, 8)
	if !c.Net.Severed(in1, out) || !c.Net.Severed(out, in2) {
		t.Fatal("partition boundary not severed")
	}
	if c.Net.GrayFactor(in2) != 8 || c.Net.GrayCount() != 1 {
		t.Fatalf("gray state: factor=%v count=%d, want 8 and 1", c.Net.GrayFactor(in2), c.Net.GrayCount())
	}

	// Cross-boundary send to the gray member still fails — severed wins.
	crossFailed := false
	c.Net.Send(out, in2, 100, func() { t.Error("cross-partition send delivered to gray member") }, func() { crossFailed = true })
	// Intra-partition send to the gray member is delivered, but slowed.
	var grayed time.Duration
	start = c.Engine.Now()
	c.Net.Send(in1, in2, 100000, func() { grayed = c.Engine.Now() - start }, func() { t.Error("intra-partition send to gray member failed") })
	c.Engine.RunUntil(c.Engine.Now() + 30*time.Second)
	if !crossFailed {
		t.Fatal("severed boundary did not fail the send")
	}
	if grayed <= healthy {
		t.Fatalf("gray member not slowed inside the partition: %v <= healthy %v", grayed, healthy)
	}

	// HealAll restores the boundary immediately (the 1h timer becomes a
	// no-op), but the gray mark survives until cleared.
	c.Net.HealAll()
	if c.Net.PartitionCount() != 0 {
		t.Fatalf("PartitionCount = %d after HealAll", c.Net.PartitionCount())
	}
	if c.Net.Severed(out, in2) {
		t.Fatal("boundary still severed after HealAll")
	}
	var healedCross time.Duration
	start = c.Engine.Now()
	c.Net.Send(out, in2, 100000, func() { healedCross = c.Engine.Now() - start }, func() { t.Error("send failed after HealAll") })
	c.Engine.Run()
	if healedCross <= 0 {
		t.Fatal("no delivery after HealAll")
	}
	if c.Net.GrayFactor(in2) != 8 {
		t.Fatal("HealAll must not clear gray state")
	}
	c.Net.ClearGray(in2)
	if c.Net.GrayCount() != 0 {
		t.Fatal("ClearGray left gray state behind")
	}
	var restored time.Duration
	start = c.Engine.Now()
	c.Net.Send(in1, in2, 100000, func() { restored = c.Engine.Now() - start }, func() { t.Error("send failed after ClearGray") })
	c.Engine.Run()
	if restored >= grayed {
		t.Fatalf("latency not restored after ClearGray: %v >= grayed %v", restored, grayed)
	}
}

// TestDisabledFeaturesDrawNoRandomness: enabling loss/dup must not perturb
// runs that have them off — the adversarial streams are lazily derived, so
// a zero-probability config's trace is byte-identical to the seed's
// baseline.
func TestDisabledFeaturesDrawNoRandomness(t *testing.T) {
	trace := func(net NetConfig) []time.Duration {
		e := simnet.NewEngine(17)
		c := New(e, Config{Computes: 8, Satellites: 1, Net: net})
		var at []time.Duration
		for _, id := range c.Computes() {
			c.Net.Send(c.Satellites()[0], id, 1000, func() { at = append(at, e.Now()) }, func() {})
		}
		e.Run()
		return at
	}
	a, b := trace(NetConfig{}), trace(NetConfig{LossProb: 0, DupProb: 0})
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: zero-probability config changed the trace", i, a[i], b[i])
		}
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// tallyOutcome is an Outcome that allocates nothing.
type tallyOutcome struct{ arrived, sent, failed int }

func (o *tallyOutcome) Arrived() { o.arrived++ }
func (o *tallyOutcome) Sent()    { o.sent++ }
func (o *tallyOutcome) Failed()  { o.failed++ }

// TestAllocsTransmit is the wire's allocation budget: a delivered message
// is one flight. Its three events — the landing, the sender's word, the
// receiver's accept-socket close — are handled by the flight and the meter
// themselves.
func TestAllocsTransmit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := newNetCluster(t, 2, NetConfig{})
	a, b := c.Computes()[0], c.Computes()[1]
	out := &tallyOutcome{}
	send := func() {
		c.Net.Transmit(a, b, 512, out)
		c.Engine.Run()
	}
	send()
	if n := testing.AllocsPerRun(1000, send); n > 1 {
		t.Errorf("one delivered Transmit: %v allocs, want at most 1 (the flight)", n)
	}
	if out.arrived != 1002 || out.sent != 1002 || out.failed != 0 {
		t.Errorf("outcome %+v, want 1002 arrivals and acknowledgements", *out)
	}
	if s := c.Node(b).Meter.Sockets(); s != 0 {
		t.Errorf("receiver holds %d sockets after the drain: the meter's close event did not run", s)
	}
}

// TestInFlightDeathTimesOutAtConnectTimeout: one answer to "the
// destination died in flight" for connecting and persistent traffic alike:
// the sender is told at its connect timeout, counted from the send, and
// holds its connect socket until then.
func TestInFlightDeathTimesOutAtConnectTimeout(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		c := newNetCluster(t, 2, NetConfig{Jitter: Disabled})
		from, to := c.Master().ID, c.Computes()[0]
		// A 1 MiB message is ~700µs on the wire; the destination dies at 100µs.
		c.ScheduleFailure(to, 100*time.Microsecond, 0)
		var failedAt, midSockets = time.Duration(-1), -1
		delivered := false
		onFailed := func() { failedAt = c.Engine.Now() }
		if persistent {
			c.Net.SendPersistent(from, to, 1<<20, func() { delivered = true }, onFailed)
		} else {
			c.Net.Send(from, to, 1<<20, func() { delivered = true }, onFailed)
		}
		c.Engine.Schedule(500*time.Millisecond, func() { midSockets = c.Master().Meter.Sockets() })
		c.RunUntil(5 * time.Second)
		if delivered {
			t.Errorf("persistent=%v: delivered to a node that died in flight", persistent)
		}
		if want := c.Net.Config().ConnectTimeout; failedAt != want {
			t.Errorf("persistent=%v: onFailed at %v, want the connect timeout %v", persistent, failedAt, want)
		}
		wantMid := 1
		if persistent {
			wantMid = 0
		}
		if midSockets != wantMid {
			t.Errorf("persistent=%v: sender sockets while waiting = %d, want %d", persistent, midSockets, wantMid)
		}
		if s := c.Master().Meter.Sockets(); s != 0 {
			t.Errorf("persistent=%v: sender sockets after the timeout = %d, want 0", persistent, s)
		}
	}
}

// TestPartitionsComposeAndHeal: overlapping scheduled partitions sever a
// link while either is active, and each heals on its own timer.
func TestPartitionsComposeAndHeal(t *testing.T) {
	c := newNetCluster(t, 4, NetConfig{Jitter: Disabled})
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

// TestStormDrainsAndReruns runs an adversarial traffic storm (loss,
// duplication, jitter, faults, gray nodes, partitions, fault state changed
// from inside events): both outcomes occur, every socket drains, and a
// rerun executes the same event stream.
func TestStormDrainsAndReruns(t *testing.T) {
	run := func() (uint64, uint64) {
		c := New(simnet.NewEngine(11), Config{
			Computes:   192,
			Satellites: 2,
			Net:        NetConfig{LossProb: 0.1, DupProb: 0.1},
		})
		c.Engine.EnableDigest()
		comps := c.Computes()
		c.ScheduleFailure(comps[3], 5*time.Millisecond, 20*time.Millisecond)
		c.Net.ScheduleGray(comps[5], 4.0, time.Millisecond, 0)
		c.Net.SchedulePartition(comps[6:9], 10*time.Millisecond, 30*time.Millisecond)
		c.Engine.Schedule(7*time.Millisecond, func() { c.Fail(comps[10]) })
		c.Engine.Schedule(15*time.Millisecond, func() { c.Recover(comps[10]) })
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
		return c.Engine.Digest(), c.Engine.Processed()
	}
	refD, refP := run()
	if d, p := run(); d != refD || p != refP {
		t.Errorf("rerun digest/processed %#x/%d, want %#x/%d", d, p, refD, refP)
	}
}
