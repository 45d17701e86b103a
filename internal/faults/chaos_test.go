package faults

import (
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/monitor"
	"eslurm/internal/simnet"
	"eslurm/internal/topo"
)

func TestRackOutageNonexistentRack(t *testing.T) {
	_, _, cp := newCampaign(7, 512, 0) // exactly rack 0
	n := cp.RackOutage(topo.Default(), 99, time.Hour, time.Hour)
	if n != 0 {
		t.Fatalf("outage on nonexistent rack hit %d nodes, want 0", n)
	}
	if len(cp.Events) != 0 {
		t.Fatalf("nonexistent rack recorded %d events", len(cp.Events))
	}
}

func TestSilentFractionSameSeedDeterminism(t *testing.T) {
	run := func() []Event {
		_, _, cp := newCampaign(5, 2000, 0.3)
		cp.Burst(time.Hour, 1000, time.Hour)
		return cp.Events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across same-seed runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFlap(t *testing.T) {
	e, c, cp := newCampaign(8, 50, 0)
	node := c.Computes()[7]
	// Down at [1m,2m), [3m,4m), [5m,6m).
	cp.Flap(node, time.Minute, 3, time.Minute, time.Minute)
	if len(cp.Events) != 3 {
		t.Fatalf("flap recorded %d events, want 3", len(cp.Events))
	}
	checks := []struct {
		at   time.Duration
		down bool
	}{
		{30 * time.Second, false},
		{90 * time.Second, true},
		{150 * time.Second, false},
		{210 * time.Second, true},
		{270 * time.Second, false},
		{330 * time.Second, true},
		{7 * time.Minute, false},
	}
	for _, ck := range checks {
		e.RunUntil(ck.at)
		if got := c.Node(node).Failed(); got != ck.down {
			t.Errorf("t=%v: failed=%v, want %v", ck.at, got, ck.down)
		}
	}
}

func TestGrayDegrade(t *testing.T) {
	e, c, cp := newCampaign(9, 50, 0)
	node := c.Computes()[3]
	cp.GrayDegrade(node, time.Minute, 2*time.Minute, 6)

	if len(cp.Events) != 1 || cp.Events[0].Node != node || !cp.Events[0].Silent {
		t.Fatalf("gray event malformed: %+v", cp.Events)
	}
	e.RunUntil(30 * time.Second)
	if f := c.Net.GrayFactor(node); f != 1 {
		t.Fatalf("gray before onset: factor %v", f)
	}
	e.RunUntil(90 * time.Second)
	if f := c.Net.GrayFactor(node); f != 6 {
		t.Fatalf("factor = %v during degradation, want 6", f)
	}
	if c.Node(node).Failed() {
		t.Fatal("gray node must stay alive")
	}
	if c.Net.GrayCount() != 1 {
		t.Fatalf("GrayCount = %d", c.Net.GrayCount())
	}
	e.RunUntil(4 * time.Minute)
	if f := c.Net.GrayFactor(node); f != 1 {
		t.Fatalf("gray did not clear: factor %v", f)
	}
}

func TestPartitionChassisSeversAndHeals(t *testing.T) {
	e, c, cp := newCampaign(10, 300, 0)
	tp := topo.Default() // chassis = 128 nodes
	n := cp.PartitionChassis(tp, 1, time.Minute, 2*time.Minute)
	if n == 0 {
		t.Fatal("partition cut no nodes")
	}
	var in, out cluster.NodeID = -1, -1
	for _, id := range c.Computes() {
		if tp.Chassis(id) == 1 && in < 0 {
			in = id
		}
		if tp.Chassis(id) != 1 && out < 0 {
			out = id
		}
	}
	master := c.Master().ID

	e.RunUntil(30 * time.Second)
	if c.Net.Severed(master, in) {
		t.Fatal("severed before the partition landed")
	}
	e.RunUntil(2 * time.Minute)
	if !c.Net.Severed(master, in) {
		t.Error("master→partitioned not severed during the cut")
	}
	if c.Net.Severed(master, out) {
		t.Error("master→outside severed; cut is too wide")
	}
	if c.Node(in).Failed() {
		t.Error("partitioned node marked failed; partitions are not fail-stops")
	}
	if c.Net.PartitionCount() != 1 {
		t.Errorf("PartitionCount = %d", c.Net.PartitionCount())
	}
	e.RunUntil(5 * time.Minute)
	if c.Net.Severed(master, in) {
		t.Error("partition did not heal")
	}
	if c.Net.PartitionCount() != 0 {
		t.Errorf("PartitionCount = %d after heal", c.Net.PartitionCount())
	}
}

func TestPartitionMembersReachEachOther(t *testing.T) {
	e, c, cp := newCampaign(11, 200, 0)
	members := c.Computes()[:16]
	cp.Partition(members, time.Minute, time.Hour)
	e.RunUntil(2 * time.Minute)
	if c.Net.Severed(members[0], members[1]) {
		t.Error("two members of the same partition severed from each other")
	}
	if !c.Net.Severed(members[0], c.Computes()[100]) {
		t.Error("member→non-member not severed")
	}
}

func TestGenerateDeterminismAndMix(t *testing.T) {
	gen := func(seed int64) []Event {
		e := simnet.NewEngine(seed)
		c := cluster.New(e, cluster.Config{Computes: 512, Satellites: 4})
		cp := New(c, monitor.New(c, monitor.Config{}), 0)
		cp.Generate(ChaosSpec{Grays: 3, SatelliteKills: 1})
		return cp.Events
	}
	a, b := gen(21), gen(21)
	if len(a) != len(b) {
		t.Fatalf("same seed generated %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across same-seed generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(gen(22)) == len(a) {
		sameAll := true
		other := gen(22)
		for i := range a {
			if a[i] != other[i] {
				sameAll = false
				break
			}
		}
		if sameAll {
			t.Fatal("different seeds generated identical campaigns")
		}
	}
	// The mix contains every requested class. The monitor is told of
	// every fail-stop, while gray spells and partition cuts are silent; a
	// chassis cut is the silent events sharing one onset.
	onsets := map[time.Duration]int{}
	for _, ev := range a {
		if ev.Silent {
			onsets[ev.At]++
		}
	}
	var announced, grays, cut int
	var satHit bool
	for _, ev := range a {
		switch {
		case !ev.Silent:
			announced++
		case onsets[ev.At] > 1:
			cut++
		default:
			grays++
		}
		if ev.Node <= 4 && ev.Node >= 1 { // satellites are IDs 1..4
			satHit = true
		}
	}
	if grays != 3 {
		t.Errorf("grays = %d, want 3", grays)
	}
	if cut == 0 {
		t.Error("no partition events generated")
	}
	if announced == 0 {
		t.Error("no fail-stop events generated")
	}
	if !satHit {
		t.Error("no satellite was killed")
	}
}
