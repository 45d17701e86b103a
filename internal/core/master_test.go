package core

import (
	"slices"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/predict"
	"eslurm/internal/satellite"
	"eslurm/internal/simnet"
)

func newMaster(seed int64, computes, satellites int) (*simnet.Engine, *cluster.Cluster, *Master) {
	e := simnet.NewEngine(seed)
	c := cluster.New(e, cluster.Config{Computes: computes, Satellites: satellites})
	m := NewMaster(c, DefaultConfig(), nil)
	return e, c, m
}

func TestSatelliteFanoutEq1(t *testing.T) {
	_, _, m := newMaster(1, 100, 5)
	w := m.Config().TreeWidth // 32
	cases := []struct {
		s, want int
	}{
		{1, 1},
		{w, 1},       // s <= w
		{w + 1, 1},   // s/w = 1
		{3 * w, 3},   // s/w
		{5*w - 1, 4}, // s/w floor, below m*w
		{5 * w, 5},   // s >= m*w
		{100 * w, 5}, // capped at m
	}
	for _, c := range cases {
		if got := m.SatelliteFanout(c.s); got != c.want {
			t.Errorf("N(%d) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestSatelliteFanoutNoSatellites(t *testing.T) {
	_, _, m := newMaster(2, 10, 0)
	if m.SatelliteFanout(10) != 0 {
		t.Error("fanout must be 0 with an empty pool")
	}
}

func TestSplitListBalanced(t *testing.T) {
	ids := make([]cluster.NodeID, 10)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	subs := splitList(ids, 3)
	if len(subs) != 3 {
		t.Fatalf("sublists = %d", len(subs))
	}
	sizes := []int{len(subs[0]), len(subs[1]), len(subs[2])}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("sizes = %v, want [4 3 3]", sizes)
	}
	// Union preserves all IDs.
	total := 0
	for _, s := range subs {
		total += len(s)
	}
	if total != 10 {
		t.Errorf("total = %d", total)
	}
}

func TestSplitListMoreBucketsThanItems(t *testing.T) {
	ids := []cluster.NodeID{1, 2}
	subs := splitList(ids, 5)
	if len(subs) != 2 {
		t.Fatalf("empty sublists must be dropped: %d", len(subs))
	}
}

func TestStartPromotesSatellites(t *testing.T) {
	e, _, m := newMaster(3, 50, 3)
	m.Start()
	e.RunUntil(10 * time.Second)
	if n := m.Pool.RunningCount(); n != 3 {
		t.Fatalf("running satellites = %d, want 3", n)
	}
	if m.Meter().VMem() == 0 || m.Meter().RSS() == 0 {
		t.Error("daemon base memory not charged")
	}
}

func TestBroadcastThroughSatellites(t *testing.T) {
	e, c, m := newMaster(4, 200, 2)
	m.Start()
	e.RunUntil(5 * time.Second)
	var res comm.Result
	got := false
	m.Broadcast(c.Computes(), 1024, func(r comm.Result) { res = r; got = true })
	e.RunUntil(30 * time.Second)
	if !got {
		t.Fatal("broadcast never completed")
	}
	if res.Delivered != 200 {
		t.Fatalf("delivered %d/200", res.Delivered)
	}
	st := m.Stats()
	if st.SubTasks != 2 {
		t.Errorf("subtasks = %d, want 2 (one per satellite)", st.SubTasks)
	}
	// The master spoke only to satellites: its outbound message count must
	// be far below the target count.
	_, out := c.Meter(c.Master().ID).Messages()
	if out > 20 {
		t.Errorf("master sent %d messages for a 200-node broadcast", out)
	}
}

func TestBroadcastEmptyTargets(t *testing.T) {
	e, _, m := newMaster(5, 10, 1)
	m.Start()
	e.RunUntil(time.Second)
	got := false
	m.Broadcast(nil, 100, func(r comm.Result) { got = true })
	e.RunUntil(2 * time.Second)
	if !got {
		t.Fatal("empty broadcast must complete immediately")
	}
}

func TestBroadcastNoSatellitesMasterTakesOver(t *testing.T) {
	e, c, m := newMaster(6, 50, 0)
	m.Start()
	e.RunUntil(time.Second)
	var res comm.Result
	m.Broadcast(c.Computes(), 512, func(r comm.Result) { res = r })
	e.RunUntil(time.Minute)
	if res.Delivered != 50 {
		t.Fatalf("delivered %d/50", res.Delivered)
	}
	if m.Stats().MasterTakeovers != 1 {
		t.Errorf("takeovers = %d, want 1", m.Stats().MasterTakeovers)
	}
}

func TestSatelliteFailureReallocates(t *testing.T) {
	e, c, m := newMaster(7, 100, 3)
	m.Start()
	e.RunUntil(time.Second)
	// Kill satellite 1 before the broadcast.
	dead := c.Satellites()[0]
	c.Fail(dead)
	var res comm.Result
	m.Broadcast(c.Computes(), 512, func(r comm.Result) { res = r })
	e.RunUntil(5 * time.Minute)
	if res.Delivered != 100 {
		t.Fatalf("delivered %d/100 after satellite failure", res.Delivered)
	}
	if m.Stats().Reallocations == 0 {
		t.Error("no reallocation recorded")
	}
	if st := m.Pool.Get(dead).State(); st != satellite.Fault && st != satellite.Down {
		t.Errorf("dead satellite state = %v", st)
	}
}

func TestAllSatellitesDeadMasterTakesOver(t *testing.T) {
	e, c, m := newMaster(8, 60, 2)
	m.Start()
	e.RunUntil(time.Second)
	for _, s := range c.Satellites() {
		c.Fail(s)
	}
	var res comm.Result
	m.Broadcast(c.Computes(), 512, func(r comm.Result) { res = r })
	e.RunUntil(10 * time.Minute)
	if res.Delivered != 60 {
		t.Fatalf("delivered %d/60 with all satellites dead", res.Delivered)
	}
	if m.Stats().MasterTakeovers == 0 {
		t.Error("master never took over")
	}
}

func TestHeartbeatSweepMaintainsStates(t *testing.T) {
	e, c, m := newMaster(9, 100, 2)
	m.Start()
	e.RunUntil(2 * m.Config().HeartbeatInterval)
	if m.Stats().HeartbeatSweeps < 1 {
		t.Fatal("no heartbeat sweep ran")
	}
	// Fail a satellite; the next sweep must mark it FAULT.
	c.Fail(c.Satellites()[1])
	e.RunUntil(4 * m.Config().HeartbeatInterval)
	st := m.Pool.Get(c.Satellites()[1]).State()
	if st != satellite.Fault && st != satellite.Down {
		t.Errorf("failed satellite state after sweeps = %v", st)
	}
	m.Stop()
	sweeps := m.Stats().HeartbeatSweeps
	e.RunUntil(10 * m.Config().HeartbeatInterval)
	if m.Stats().HeartbeatSweeps != sweeps {
		t.Error("heartbeats continued after Stop")
	}
}

func TestJobLifecycleMemoryBalanced(t *testing.T) {
	e, c, m := newMaster(10, 64, 1)
	m.Start()
	e.RunUntil(time.Second)
	before := m.Meter().VMem()
	nodes := c.Computes()[:16]
	m.LoadJob(nodes, nil)
	if m.ActiveJobs() != 1 {
		t.Error("job not tracked")
	}
	e.RunUntil(10 * time.Second)
	during := m.Meter().VMem()
	if during <= before {
		t.Error("job state not charged")
	}
	m.TerminateJob(nodes, nil)
	e.RunUntil(30 * time.Second)
	if m.ActiveJobs() != 0 {
		t.Error("job not released")
	}
	if m.Meter().VMem() != before {
		t.Errorf("vmem leaked: before=%d after=%d", before, m.Meter().VMem())
	}
}

func TestPlacementStatsAccumulateAcrossBroadcasts(t *testing.T) {
	e, c, m := newMaster(11, 300, 2)
	stats := &comm.PlacementStats{}
	m.Placement = stats
	// Predict-and-fail 6 compute nodes.
	pred := predict.Static{}
	for i := 0; i < 6; i++ {
		id := c.Computes()[i*37]
		pred[id] = true
		c.Fail(id)
	}
	m.Predictor = pred
	m.Start()
	e.RunUntil(time.Second)
	for i := 0; i < 3; i++ {
		m.Broadcast(c.Computes(), 256, nil)
	}
	e.RunUntil(5 * time.Minute)
	if stats.TreesBuilt < 3 {
		t.Fatalf("trees built = %d", stats.TreesBuilt)
	}
	if stats.FailedEncountered == 0 {
		t.Fatal("no failures encountered")
	}
	if r := stats.LeafPlacementRatio(); r < 0.99 {
		t.Errorf("placement ratio %v with perfect prediction, want ~1.0", r)
	}
}

func TestMasterSocketsStayLow(t *testing.T) {
	// The headline scalability claim: master concurrent sockets stay below
	// ~100 even for large broadcasts (Fig. 7e).
	e, c, m := newMaster(12, 2000, 4)
	m.Start()
	e.RunUntil(time.Second)
	m.Broadcast(c.Computes(), 1024, nil)
	e.RunUntil(2 * time.Minute)
	if peak := c.Meter(c.Master().ID).PeakSockets(); peak > 100 {
		t.Errorf("master peak sockets = %d, want < 100", peak)
	}
}

func TestSuspectSetFeedsPlacement(t *testing.T) {
	e, c, m := newMaster(13, 200, 2)
	m.Start()
	e.RunUntil(time.Second)
	// Fail a node with NO predictor knowledge; the first broadcast pays
	// the timeout, marks the node suspect, and the next broadcast places
	// it at a leaf (fast healthy delivery).
	dead := c.Computes()[0]
	c.Fail(dead)
	var first, second comm.Result
	m.Broadcast(c.Computes(), 256, func(r comm.Result) { first = r })
	e.RunUntil(e.Now() + 5*time.Minute)
	if !m.Suspected(dead) {
		t.Fatal("unreachable node not suspected")
	}
	m.Broadcast(c.Computes(), 256, func(r comm.Result) { second = r })
	e.RunUntil(e.Now() + 5*time.Minute)
	if second.DeliveredElapsed >= first.DeliveredElapsed {
		t.Errorf("suspect feedback did not speed delivery: %v -> %v",
			first.DeliveredElapsed, second.DeliveredElapsed)
	}
	if second.DeliveredElapsed > 500*time.Millisecond {
		t.Errorf("second broadcast still slow: %v", second.DeliveredElapsed)
	}
}

func TestSuspectExpires(t *testing.T) {
	e, c, m := newMaster(14, 50, 1)
	m.Start()
	e.RunUntil(time.Second)
	dead := c.Computes()[0]
	c.Fail(dead)
	m.Broadcast(c.Computes(), 128, nil)
	e.RunUntil(e.Now() + 5*time.Minute)
	if !m.Suspected(dead) {
		t.Fatal("not suspected")
	}
	m.Stop() // no heartbeats re-marking it
	e.RunUntil(e.Now() + SuspectTTL + time.Minute)
	if m.Suspected(dead) {
		t.Error("suspicion did not expire")
	}
}

func TestDisableSuspectFeedback(t *testing.T) {
	e := simnet.NewEngine(15)
	c := cluster.New(e, cluster.Config{Computes: 50, Satellites: 1})
	cfg := DefaultConfig()
	cfg.DisableSuspectFeedback = true
	m := NewMaster(c, cfg, nil)
	m.Start()
	e.RunUntil(time.Second)
	dead := c.Computes()[0]
	c.Fail(dead)
	m.Broadcast(c.Computes(), 128, nil)
	e.RunUntil(e.Now() + 5*time.Minute)
	if m.Suspected(dead) {
		t.Error("suspect feedback ran despite being disabled")
	}
}

func TestSatelliteMemoryModel(t *testing.T) {
	e, c, m := newMaster(16, 1000, 2)
	m.Start()
	e.RunUntil(time.Second)
	sat := c.Satellites()[0]
	sm := c.Meter(sat)
	if sm.VMem() < SatelliteBaseVMem {
		t.Error("satellite base vmem not charged")
	}
	base := sm.RSS()
	m.Broadcast(c.Computes(), 1024, nil)
	e.RunUntil(e.Now() + time.Minute)
	if sm.RSS() <= base {
		t.Error("satellite RSS watermark did not grow with a task")
	}
}

// TestDrainIdleSatelliteShutsItDown: draining a satellite that is not
// BUSY applies the SHUTDOWN command of Table II at once and sends it as a
// real control message; the node stays DOWN and out of rotation.
func TestDrainIdleSatelliteShutsItDown(t *testing.T) {
	e, c, m := newMaster(17, 100, 2)
	m.Start()
	e.RunUntil(time.Second)
	target := c.Satellites()[0]
	acked := false
	if err := m.DrainSatellite(target, 0, func(_, delivered bool) { acked = delivered }); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(2 * time.Second)
	if !acked {
		t.Error("shutdown command not delivered")
	}
	if st := m.Pool.Get(target).State(); st != satellite.Down {
		t.Fatalf("state = %v, want DOWN", st)
	}
	// Broadcasts route around the DOWN satellite.
	var res comm.Result
	m.Broadcast(c.Computes(), 256, func(r comm.Result) { res = r })
	e.RunUntil(time.Minute)
	if res.Delivered != 100 {
		t.Fatalf("delivered %d with one satellite down", res.Delivered)
	}
	// Unknown node errors.
	if err := m.DrainSatellite(c.Computes()[0], 0, nil); err == nil {
		t.Error("drain of a compute node accepted")
	}
}

// TestPartitionedMasterReallocates: the master splits a broadcast into
// satellite sub-tasks, and a satellite killed while its FP-Tree relay is
// in progress has its task reallocated.
func TestPartitionedMasterReallocates(t *testing.T) {
	c := cluster.New(simnet.NewEngine(7), cluster.Config{Computes: 700, Satellites: 3})
	m := NewMaster(c, DefaultConfig(), nil)
	m.Start()
	c.RunUntil(time.Second)
	// The first satellite dies while its FP-Tree relay is in progress.
	dead := c.Satellites()[0]
	c.ScheduleFailure(dead, c.Engine.Now()+3*time.Millisecond, 0)
	var res comm.Result
	m.Broadcast(c.Computes(), 512, func(r comm.Result) { res = r })
	c.RunUntil(10 * time.Minute)
	m.Stop()
	if st := m.Pool.Get(dead).State(); st != satellite.Fault && st != satellite.Down {
		t.Errorf("dead satellite state = %v", st)
	}
	if res.Delivered != 700 {
		t.Errorf("delivered %d/700 after the satellite died", res.Delivered)
	}
	if st := m.Stats(); st.SubTasks == 0 || st.Reallocations == 0 {
		t.Errorf("stats = %+v, want SubTasks > 0 and Reallocations > 0", st)
	}
}

// TestBroadcastLeavesTargetsUnchanged: cluster.Computes is the cluster's
// own read-only slice, so Master.Broadcast may not reorder or edit the
// targets it is given on any path: split across satellites, reallocated
// from a dead satellite with a failed compute in the list, or taken over
// by the master when no satellite is left.
func TestBroadcastLeavesTargetsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sats     int
		failSats int
	}{
		{"satellites", 3, 0},
		{"reallocation", 3, 1},
		{"takeover", 2, 2},
	} {
		e, c, m := newMaster(25, 120, tc.sats)
		m.Start()
		e.RunUntil(time.Second)
		for _, s := range c.Satellites()[:tc.failSats] {
			c.Fail(s)
		}
		targets := c.Computes()
		c.Fail(targets[5])
		want := slices.Clone(targets)
		got := false
		m.Broadcast(targets, 512, func(comm.Result) { got = true })
		e.RunUntil(10 * time.Minute)
		if !got {
			t.Fatalf("%s: broadcast never completed", tc.name)
		}
		if !slices.Equal(targets, want) || !slices.Equal(c.Computes(), want) {
			t.Errorf("%s: Master.Broadcast changed its target slice", tc.name)
		}
	}
}
