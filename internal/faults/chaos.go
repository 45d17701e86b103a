package faults

// Adversarial scenarios beyond clean fail-stop: flapping nodes, gray
// failures (alive but slow), and correlated network partitions. Related
// simulation frameworks (SST job-scheduling simulation, arXiv:2501.18191;
// CGSim, arXiv:2510.00822) stress that credible scalability results
// require modelling degraded and partitioned networks, not just binary
// liveness — these scenarios are the injection side of that model; the
// network-level mechanics live in cluster.Network.

import (
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/topo"
)

// Flap bounces a node: starting at `at` it fails, recovers after `down`,
// stays up for `up`, then fails again, for `cycles` cycles. Flapping is
// the pathological case for monitoring sweeps — the node may look healthy
// at every sweep yet be unusable in between.
func (cp *Campaign) Flap(node cluster.NodeID, at time.Duration, cycles int, down, up time.Duration) {
	for i := 0; i < cycles; i++ {
		cp.inject(node, at, down, -1)
		at += down + up
	}
}

// GrayDegrade marks a node gray — alive but slow — from `at` for `dur`
// (dur <= 0 means forever), inflating its connect and relay costs by
// `factor`. Gray failures are never announced: the node still answers
// heartbeats, so monitoring sees it as healthy. That is exactly the
// failure mode fail-stop detection cannot catch, and what the FP-Tree's
// predicted-failed leaf demotion is for.
func (cp *Campaign) GrayDegrade(node cluster.NodeID, at, dur time.Duration, factor float64) {
	cp.Cluster.Net.ScheduleGray(node, factor, at, dur)
	cp.Events = append(cp.Events, Event{
		Node: node, At: at, Down: dur, Silent: true, RackID: -1, Kind: KindGray,
	})
}

// Partition severs `members` from the rest of the cluster at `at`,
// healing after `dur` (dur <= 0 leaves it in place).
// Members still reach each other; traffic across the cut times out at
// the sender. Partitions are silent by construction — there is no node
// failure for the monitor to be told about.
func (cp *Campaign) Partition(members []cluster.NodeID, at, dur time.Duration) {
	if len(members) == 0 {
		return
	}
	cp.Cluster.Net.SchedulePartition(members, at, dur)
	for _, id := range members {
		cp.Events = append(cp.Events, Event{
			Node: id, At: at, Down: dur, Silent: true, RackID: -1, Kind: KindPartition,
		})
	}
}

// PartitionChassis severs one chassis's compute nodes (leaf-switch loss),
// the smaller correlated cut. Returns the number of nodes cut off.
func (cp *Campaign) PartitionChassis(tp topo.Topology, chassisID int, at, dur time.Duration) int {
	var members []cluster.NodeID
	for _, id := range cp.Cluster.Computes() {
		if tp.Chassis(id) == chassisID {
			members = append(members, id)
		}
	}
	cp.Partition(members, at, dur)
	return len(members)
}

// ChaosSpec parameterizes a randomized mixed campaign. Generate draws all
// randomness from the engine stream "faults/chaos", so one (engine seed,
// spec) pair always produces the same campaign — the determinism contract
// that makes a failing chaos seed replayable.
type ChaosSpec struct {
	// Horizon is the window events land in (default 10 minutes).
	Horizon time.Duration
	// Counts per scenario class. Zero means none of that class.
	Bursts     int // scattered multi-node fail-stops
	Flaps      int // bouncing nodes
	Grays      int // alive-but-slow nodes
	Partitions int // chassis-correlated cuts
	// SatelliteKills fail-stops random satellite nodes (recovering like
	// other outages), exercising Table II demotions, reallocation and
	// master takeover.
	SatelliteKills int
}

// maxDown caps every outage a generated campaign draws: fail-stops,
// flap cycles, gray spells and partitions all last at most 90s.
const maxDown = 90 * time.Second

// grayFactorMax caps the slow-down multiplier of a generated gray node.
const grayFactorMax = 8

func (s ChaosSpec) withDefaults() ChaosSpec {
	if s.Horizon <= 0 {
		s.Horizon = 10 * time.Minute
	}
	return s
}

// Generate populates the campaign with a randomized mix drawn from the
// spec. Event times, victims, durations, and gray factors all come from
// the "faults/chaos" stream.
func (cp *Campaign) Generate(spec ChaosSpec) {
	spec = spec.withDefaults()
	rng := cp.Cluster.Engine.Rand("faults/chaos")
	comps := cp.Cluster.Computes()
	if len(comps) == 0 {
		return
	}
	pick := func() cluster.NodeID { return comps[rng.Intn(len(comps))] }
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(spec.Horizon))) }
	down := func() time.Duration { return time.Duration(1 + rng.Int63n(int64(maxDown))) }

	for i := 0; i < spec.Bursts; i++ {
		cp.Burst(at(), 2+rng.Intn(6), down())
	}
	for i := 0; i < spec.Flaps; i++ {
		cp.Flap(pick(), at(), 2+rng.Intn(3), down()/4+time.Second, down()/2+time.Second)
	}
	for i := 0; i < spec.Grays; i++ {
		factor := 2 + rng.Float64()*(grayFactorMax-2)
		cp.GrayDegrade(pick(), at(), down(), factor)
	}
	if spec.Partitions > 0 {
		tp := topo.Default()
		chassis := tp.Chassis(comps[len(comps)-1]) + 1
		for i := 0; i < spec.Partitions; i++ {
			cp.PartitionChassis(tp, rng.Intn(chassis), at(), down())
		}
	}
	if sats := cp.Cluster.Satellites(); len(sats) > 0 {
		for i := 0; i < spec.SatelliteKills; i++ {
			cp.inject(sats[rng.Intn(len(sats))], at(), down(), -1)
		}
	}
}
