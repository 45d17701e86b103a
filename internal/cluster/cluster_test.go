package cluster

import (
	"testing"
	"testing/quick"
	"time"

	"eslurm/internal/simnet"
)

func newTestCluster(t *testing.T, computes, satellites int) *Cluster {
	t.Helper()
	e := simnet.NewEngine(11)
	return New(e, Config{Computes: computes, Satellites: satellites})
}

func TestClusterLayout(t *testing.T) {
	c := newTestCluster(t, 10, 3)
	if c.Size() != 14 {
		t.Fatalf("Size = %d, want 14", c.Size())
	}
	if c.Master().Role != RoleMaster || c.Master().ID != 0 {
		t.Error("master must be node 0")
	}
	sats := c.Satellites()
	if len(sats) != 3 {
		t.Fatalf("satellites = %d, want 3", len(sats))
	}
	for i, id := range sats {
		if id != NodeID(1+i) {
			t.Errorf("satellite %d has ID %d", i, id)
		}
	}
	comps := c.Computes()
	if len(comps) != 10 {
		t.Fatalf("computes = %d, want 10", len(comps))
	}
	if comps[0] != 4 {
		t.Errorf("first compute ID = %d, want 4", comps[0])
	}
}

// TestComputesIsSharedAndClipped: Computes and Satellites cost no
// allocation because every call returns the cluster's one slice, clipped,
// so a caller's append copies instead of writing into the cluster.
func TestComputesIsSharedAndClipped(t *testing.T) {
	c := newTestCluster(t, 10, 3)
	for _, tc := range []struct {
		role Role
		ids  func() []NodeID
		n    int
	}{{RoleCompute, c.Computes, 10}, {RoleSatellite, c.Satellites, 3}} {
		ids := tc.ids()
		for i, id := range ids {
			if c.Node(id).Role != tc.role || (i > 0 && id <= ids[i-1]) {
				t.Fatalf("%v list [%d] = %d: not the %v nodes in ID order", tc.role, i, id, tc.role)
			}
		}
		if cap(ids) != len(ids) {
			t.Errorf("%v list: cap %d > len %d: an append would write into the cluster's slice", tc.role, cap(ids), len(ids))
		}
		_ = append(ids, 0)
		if again := tc.ids(); &again[0] != &ids[0] || len(again) != tc.n {
			t.Errorf("%v list: not the cluster's one slice unchanged", tc.role)
		}
		if n := testing.AllocsPerRun(100, func() { _ = tc.ids() }); n != 0 && !raceEnabled {
			t.Errorf("%v list: %v allocs/op, want 0", tc.role, n)
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleMaster.String() != "master" || RoleSatellite.String() != "satellite" || RoleCompute.String() != "compute" {
		t.Error("role strings wrong")
	}
	if Role(99).String() == "" {
		t.Error("unknown role must still print")
	}
}

func TestFailRecover(t *testing.T) {
	c := newTestCluster(t, 4, 0)
	id := c.Computes()[0]
	c.Fail(id)
	c.Fail(id) // idempotent
	if !c.Node(id).Failed() {
		t.Error("node not failed")
	}
	if c.FailedCount() != 1 {
		t.Errorf("FailedCount = %d", c.FailedCount())
	}
	c.Recover(id)
	if c.Node(id).Failed() {
		t.Error("node still failed after Recover")
	}
}

func TestScheduleFailure(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	id := c.Computes()[0]
	c.ScheduleFailure(id, 5*time.Second, 10*time.Second)
	c.Engine.RunUntil(6 * time.Second)
	if !c.Node(id).Failed() {
		t.Fatal("node not failed at t=6s")
	}
	c.Engine.RunUntil(16 * time.Second)
	if c.Node(id).Failed() {
		t.Fatal("node not recovered at t=16s")
	}
}

func TestSendHealthy(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	a, b := c.Satellites()[0], c.Master().ID
	delivered, failed := false, false
	c.Net.Send(a, b, 1000, func() { delivered = true }, func() { failed = true })
	c.Engine.Run()
	if !delivered || failed {
		t.Fatalf("delivered=%v failed=%v", delivered, failed)
	}
	in, _ := c.Meter(b).Messages()
	if in != 1 {
		t.Errorf("receiver message count = %d", in)
	}
	_, out := c.Meter(a).Messages()
	if out != 1 {
		t.Errorf("sender out count = %d", out)
	}
	if c.Meter(a).Sockets() != 0 || c.Meter(b).Sockets() != 0 {
		t.Error("sockets leaked after delivery")
	}
}

func TestSendToFailedTimesOut(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	a, b := c.Master().ID, c.Computes()[1]
	c.Fail(b)
	var failedAt time.Duration
	delivered := false
	c.Net.Send(a, b, 100, func() { delivered = true }, func() { failedAt = c.Engine.Now() })
	c.Engine.Run()
	if delivered {
		t.Fatal("delivered to failed node")
	}
	if failedAt != c.Net.Config().ConnectTimeout {
		t.Fatalf("failure reported at %v, want %v", failedAt, c.Net.Config().ConnectTimeout)
	}
	if c.Meter(a).Sockets() != 0 {
		t.Error("socket leaked after timeout")
	}
}

func TestSendFailsMidFlight(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	a, b := c.Computes()[0], c.Computes()[1]
	delivered, failed := false, false
	c.Net.Send(a, b, 1<<20, func() { delivered = true }, func() { failed = true })
	// Fail the destination before the (large) message can arrive.
	c.Engine.After(100*time.Microsecond, func() { c.Fail(b) })
	c.Engine.Run()
	if delivered || !failed {
		t.Fatalf("mid-flight failure: delivered=%v failed=%v", delivered, failed)
	}
}

func TestTransferTimeMonotonicInSize(t *testing.T) {
	c := newTestCluster(t, 2, 0)
	small := c.Net.TransferTime(100)
	big := c.Net.TransferTime(1 << 24)
	if big <= small {
		t.Errorf("TransferTime not monotonic: %v vs %v", small, big)
	}
}

func TestSendPersistentNoSocketChurn(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	a, b := c.Master().ID, c.Satellites()[0]
	delivered := false
	c.Net.SendPersistent(a, b, 100, func() { delivered = true }, nil)
	c.Engine.Run()
	if !delivered {
		t.Fatal("not delivered")
	}
	if c.Meter(a).PeakSockets() != 0 || c.Meter(b).PeakSockets() != 0 {
		t.Error("persistent send churned sockets")
	}
}

func TestMeterCPUAndMemory(t *testing.T) {
	var m ResourceMeter
	m.ChargeCPU(time.Second)
	m.ChargeCPU(-time.Second) // ignored
	if m.CPUTime() != time.Second {
		t.Errorf("CPUTime = %v", m.CPUTime())
	}
	m.AddVMem(1000)
	m.AddVMem(-2000) // clamped
	if m.VMem() != 0 {
		t.Errorf("VMem = %d", m.VMem())
	}
	m.AddRSS(500)
	if m.RSS() != 500 {
		t.Errorf("RSS = %d", m.RSS())
	}
}

func TestMeterSocketClamp(t *testing.T) {
	var m ResourceMeter
	m.CloseSocket(0)
	if m.Sockets() != 0 {
		t.Error("socket count went negative")
	}
	m.OpenSocket(0)
	m.OpenSocket(0)
	if m.PeakSockets() != 2 {
		t.Errorf("peak = %d", m.PeakSockets())
	}
}

func TestMeterAvgSockets(t *testing.T) {
	e := simnet.NewEngine(1)
	c := New(e, Config{Computes: 1})
	m := c.Meter(c.Master().ID)
	// Hold 2 sockets for the first 10s, 0 sockets for the next 10s.
	m.OpenSocket(e.Now())
	m.OpenSocket(e.Now())
	e.Schedule(10*time.Second, func() { m.CloseSocket(e.Now()); m.CloseSocket(e.Now()) })
	e.RunUntil(20 * time.Second)
	avg := m.AvgSockets(e.Now())
	if avg < 0.9 || avg > 1.1 {
		t.Errorf("AvgSockets = %v, want ~1.0", avg)
	}
}

func TestSampler(t *testing.T) {
	e := simnet.NewEngine(1)
	c := New(e, Config{Computes: 1})
	m := c.Meter(c.Master().ID)
	s := NewSampler(e, m, time.Second)
	e.Every(time.Second, func() { m.ChargeCPU(10 * time.Millisecond) })
	e.RunUntil(5500 * time.Millisecond)
	if len(s.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(s.Samples))
	}
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i].CPUTime < s.Samples[i-1].CPUTime {
			t.Error("CPU time series not monotone")
		}
	}
	s.Stop()
	e.RunUntil(10 * time.Second)
	if len(s.Samples) != 5 {
		t.Error("sampler ran after Stop")
	}
}

// Property: message delivery time is deterministic for a fixed seed and
// grows with message size.
func TestPropertyDeliveryTimeGrowsWithSize(t *testing.T) {
	f := func(sz uint32) bool {
		e := simnet.NewEngine(5)
		c := New(e, Config{Computes: 2, Net: NetConfig{Jitter: time.Nanosecond}})
		a, b := c.Computes()[0], c.Computes()[1]
		var small, big time.Duration
		c.Net.Send(a, b, 10, func() { small = e.Now() }, nil)
		e.Run()
		e2 := simnet.NewEngine(5)
		c2 := New(e2, Config{Computes: 2, Net: NetConfig{Jitter: time.Nanosecond}})
		c2.Net.Send(a, b, int(sz%(1<<22))+10, func() { big = e2.Now() }, nil)
		e2.Run()
		return big >= small
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
