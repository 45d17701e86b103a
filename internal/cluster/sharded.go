package cluster

import (
	"math/rand"
	"time"

	"eslurm/internal/simnet"
)

// Sharded substrate: the cluster spread over a simnet.ShardGroup so one
// logical simulation spans multiple engine cells (and, via the group's
// worker knob, multiple cores). The partitioning rule is the caller's —
// the experiment layer maps nodes to cells by rack via internal/topo —
// and the conservative lookahead is the network's link latency: every
// cross-cell effect rides a message, and no message arrives in less than
// one Latency, so cells are causally independent within a window.
//
// # What is replicated, what is owned
//
// Each node's meter and model state live on exactly one cell — the
// node's home cell — and are touched only by that cell's events. Fault
// control state (fail-stop flags, gray factors, link degradation,
// partitions) is *replicated* per cell: the control API pre-schedules
// the same flip on every cell at the same virtual instant, so any cell
// can answer "is this path broken?" locally, with no cross-cell reads,
// and every replica agrees whenever a message consults it. Replication
// is what lets faults and partitions keep working across shard
// boundaries without a shared map.
//
// # The wire contract
//
// Send callbacks are split by location, which a single-engine network
// never needed: onArrive runs on the destination's cell at the delivery
// instant (the payload is there; a relay can forward), onAcked runs on
// the source's cell one link latency after delivery (the sender may
// release resources), and onFailed runs on the source's cell at its
// connect timeout. Two deliberate deviations from the single-engine
// Network, both source-local and deterministic: the sender closes its
// connect socket at the delivery instant even when the destination died
// in flight (the single-engine model holds it until the timeout), and a
// destination that dies in flight is reported at the later of the
// sender's timeout and the earliest instant the nack can travel back.
type ShardedCluster struct {
	g   *simnet.ShardGroup
	cfg NetConfig

	nodes  []*ShardNode
	cellOf []int
	reps   []*cellRep
}

// ShardNode is one machine homed on a cell of a sharded cluster.
type ShardNode struct {
	ID   NodeID
	Role Role
	Cell int
	// Meter accumulates this node's daemon resources on its home cell's
	// engine; touch it only from that cell's events.
	Meter ResourceMeter
}

// cellRep is one cell's replica of the fault-control state plus its
// network jitter stream. Owned by the cell: only that cell's events (or
// the idle coordinator) read or write it.
type cellRep struct {
	failed []bool
	faultState
	rng *rand.Rand
}

// ShardConfig sizes a sharded cluster.
type ShardConfig struct {
	Computes   int
	Satellites int
	// Net overrides; zero values take defaults. The effective Latency
	// must be positive — it is the conservative lookahead bound, and a
	// latency-free network admits no concurrent window.
	Net NetConfig
	// Cells is the number of engine cells (the fixed logical partition);
	// values below 1 mean one cell. CellOf maps each node to its home
	// cell in [0, Cells); nil homes everything on cell 0. The mapping
	// must depend only on the model (IDs, roles, topology), never on the
	// worker count, or shard invariance is forfeit.
	Cells  int
	CellOf func(id NodeID, role Role) int
	// Workers is the goroutine count executing cells (clamped to
	// [1, Cells] by the group); it does not affect results.
	Workers int
	// Seed is the root seed; per-cell engine seeds derive from it.
	Seed int64
}

// NewSharded builds a sharded cluster: one master (ID 0), then
// satellites, then computes, homed on cells by cfg.CellOf.
func NewSharded(cfg ShardConfig) *ShardedCluster {
	net := cfg.Net.withDefaults()
	if net.Latency <= 0 {
		panic("cluster: sharded execution needs a positive link latency (it is the lookahead bound)")
	}
	cells := cfg.Cells
	if cells < 1 {
		cells = 1
	}
	g := simnet.NewShardGroup(cfg.Seed, cells, net.Latency, cfg.Workers)
	sc := &ShardedCluster{g: g, cfg: net}
	add := func(role Role) {
		id := NodeID(len(sc.nodes))
		cell := 0
		if cfg.CellOf != nil {
			cell = cfg.CellOf(id, role)
			if cell < 0 || cell >= cells {
				panic("cluster: CellOf returned a cell out of range")
			}
		}
		n := &ShardNode{ID: id, Role: role, Cell: cell}
		n.Meter.engine = g.Cell(cell)
		sc.nodes = append(sc.nodes, n)
		sc.cellOf = append(sc.cellOf, cell)
	}
	add(RoleMaster)
	for i := 0; i < cfg.Satellites; i++ {
		add(RoleSatellite)
	}
	for i := 0; i < cfg.Computes; i++ {
		add(RoleCompute)
	}
	sc.reps = make([]*cellRep, cells)
	for c := 0; c < cells; c++ {
		sc.reps[c] = &cellRep{
			failed: make([]bool, len(sc.nodes)),
			rng:    g.Cell(c).Rand("cluster/network"),
		}
	}
	return sc
}

// Group returns the underlying shard group (run control, digests,
// merged metrics).
func (sc *ShardedCluster) Group() *simnet.ShardGroup { return sc.g }

// Config returns the effective network configuration.
func (sc *ShardedCluster) Config() NetConfig { return sc.cfg }

// Node returns the node with the given ID.
func (sc *ShardedCluster) Node(id NodeID) *ShardNode { return sc.nodes[id] }

// CellOf returns a node's home cell.
func (sc *ShardedCluster) CellOf(id NodeID) int { return sc.cellOf[id] }

// Engine returns the engine of a node's home cell: the only engine that
// node's model events and meter may touch.
func (sc *ShardedCluster) Engine(id NodeID) *simnet.Engine { return sc.g.Cell(sc.cellOf[id]) }

// Size returns the total node count including master and satellites.
func (sc *ShardedCluster) Size() int { return len(sc.nodes) }

// Master returns the master node (always ID 0).
func (sc *ShardedCluster) Master() *ShardNode { return sc.nodes[0] }

// Satellites returns the IDs of all satellite nodes in ID order.
func (sc *ShardedCluster) Satellites() []NodeID {
	var out []NodeID
	for _, n := range sc.nodes {
		if n.Role == RoleSatellite {
			out = append(out, n.ID)
		}
	}
	return out
}

// Computes returns the IDs of all compute nodes in ID order.
func (sc *ShardedCluster) Computes() []NodeID {
	out := make([]NodeID, 0, len(sc.nodes))
	for _, n := range sc.nodes {
		if n.Role == RoleCompute {
			out = append(out, n.ID)
		}
	}
	return out
}

// Failed reports a node's fail-stop state. Call only while the group is
// idle (between RunUntil phases): it reads cell 0's replica, which
// agrees with every other replica exactly then.
func (sc *ShardedCluster) Failed(id NodeID) bool { return sc.reps[0].failed[id] }

// FailedOn reports id's fail-stop state as seen from viewer's home cell
// replica — the mid-run-safe read for code executing on that cell
// (invariant checks, adoption decisions).
func (sc *ShardedCluster) FailedOn(viewer, id NodeID) bool {
	return sc.reps[sc.cellOf[viewer]].failed[id]
}

// FailedCount returns the number of currently failed nodes (idle-only,
// like Failed).
func (sc *ShardedCluster) FailedCount() int {
	k := 0
	for _, f := range sc.reps[0].failed {
		if f {
			k++
		}
	}
	return k
}

// ---------------------------------------------------------------------------
// Fault control. Each call pre-schedules the same state flip on every
// cell at the same virtual instant, from the coordinating goroutine
// while the group is idle — the replicas never diverge at any time a
// message consults them, and the flip events are part of every cell's
// deterministic schedule regardless of worker count.

// ScheduleFail injects a fail-stop at virtual time at; if recoverAfter
// is positive the node comes back that much later.
func (sc *ShardedCluster) ScheduleFail(id NodeID, at, recoverAfter time.Duration) {
	for c := range sc.reps {
		rep := sc.reps[c]
		sc.g.Cell(c).Schedule(at, func() { rep.failed[id] = true })
		if recoverAfter > 0 {
			sc.g.Cell(c).Schedule(at+recoverAfter, func() { rep.failed[id] = false })
		}
	}
}

// ScheduleGray marks a node gray (alive but slowed by factor > 1) at
// virtual time at; if clearAfter is positive the mark clears that much
// later. A factor <= 1 clears instead.
func (sc *ShardedCluster) ScheduleGray(id NodeID, factor float64, at, clearAfter time.Duration) {
	for c := range sc.reps {
		rep := sc.reps[c]
		sc.g.Cell(c).Schedule(at, func() { rep.setGray(id, factor) })
		if clearAfter > 0 && factor > 1 {
			sc.g.Cell(c).Schedule(at+clearAfter, func() { rep.setGray(id, 1) })
		}
	}
}

// ScheduleLinkDegrade multiplies the directed link's transfer time by
// factor (> 1) from virtual time at; factor <= 1 restores the link.
func (sc *ShardedCluster) ScheduleLinkDegrade(from, to NodeID, factor float64, at time.Duration) {
	for c := range sc.reps {
		rep := sc.reps[c]
		sc.g.Cell(c).Schedule(at, func() { rep.setDegrade(from, to, factor) })
	}
}

// SchedulePartition severs the member set from the rest of the cluster
// at virtual time at; if heal is positive the partition heals that much
// later. Partitions compose exactly as on the single-engine Network.
func (sc *ShardedCluster) SchedulePartition(members []NodeID, at, heal time.Duration) {
	member := make(map[NodeID]bool, len(members))
	for _, id := range members {
		member[id] = true
	}
	for c := range sc.reps {
		rep := sc.reps[c]
		// Each cell owns its replica partition object: heal mutates the
		// holding cell's slice only.
		p := &partition{member: member}
		sc.g.Cell(c).Schedule(at, func() { rep.sever(p) })
		if heal > 0 {
			sc.g.Cell(c).Schedule(at+heal, func() { rep.heal(p) })
		}
	}
}

func (r *cellRep) unreachable(from, to NodeID) bool {
	return r.failed[to] || r.severed(from, to)
}

// GrayFactor returns a node's slowdown factor (1 when healthy);
// idle-only, like Failed.
func (sc *ShardedCluster) GrayFactor(id NodeID) float64 { return sc.reps[0].grayFactor(id) }

// GrayFactorOn returns id's slowdown factor as seen from viewer's home
// cell replica — the mid-run-safe read for code executing on that cell
// (relay delays, local backoff decisions).
func (sc *ShardedCluster) GrayFactorOn(viewer, id NodeID) float64 {
	return sc.reps[sc.cellOf[viewer]].grayFactor(id)
}

// TransferTime returns the modelled one-way delivery time for a healthy
// message of size bytes (latency + serialization).
func (sc *ShardedCluster) TransferTime(size int) time.Duration {
	ser := time.Duration(float64(size) / sc.cfg.BandwidthBps * float64(time.Second))
	return sc.cfg.Latency + ser
}

// Send models one message from -> to carrying size bytes, invoked from
// an event on the sender's home cell (or the idle coordinator).
//
// Every random draw (jitter, loss, duplication) happens source-side at
// send time on the source cell's labelled streams, so the wire schedule
// is a function of (seed, cell, draw order) alone. onArrive fires on the
// destination cell at each delivery (twice under duplication — receivers
// dedup); onAcked fires on the source cell one latency after the first
// delivery; onFailed fires on the source cell after the connect timeout
// when the destination is dead, partitioned away, or the message is
// lost. Any callback may be nil.
func (sc *ShardedCluster) Send(from, to NodeID, size int, onArrive, onAcked, onFailed func()) {
	sc.send(from, to, size, true, onArrive, onAcked, onFailed)
}

// SendPersistent models traffic over an established long-lived
// connection: no connect cost and no per-message socket churn,
// otherwise identical to Send.
func (sc *ShardedCluster) SendPersistent(from, to NodeID, size int, onArrive, onAcked, onFailed func()) {
	sc.send(from, to, size, false, onArrive, onAcked, onFailed)
}

func (sc *ShardedCluster) send(from, to NodeID, size int, connect bool, onArrive, onAcked, onFailed func()) {
	srcCell, dstCell := sc.cellOf[from], sc.cellOf[to]
	src, dst := sc.nodes[from], sc.nodes[to]
	e := sc.g.Cell(srcCell)
	rep := sc.reps[srcCell]
	L := sc.cfg.Latency

	src.Meter.CountMessage(true, size)
	if connect {
		src.Meter.OpenSocket()
	}

	if rep.unreachable(from, to) || rep.lost(e, sc.cfg.LossProb) {
		e.After(sc.cfg.ConnectTimeout, func() {
			if connect {
				src.Meter.CloseSocket()
			}
			if onFailed != nil {
				onFailed()
			}
		})
		return
	}

	factor := rep.pathFactor(from, to)
	d := scale(sc.TransferTime(size), factor)
	if connect {
		d += scale(sc.cfg.ConnectCost, factor)
	}
	if sc.cfg.Jitter > 0 {
		d += time.Duration(rep.rng.Int63n(int64(sc.cfg.Jitter) + 1))
	}
	dup := rep.duplicated(e, sc.cfg.DupProb)

	timeoutAt := e.Now() + sc.cfg.ConnectTimeout
	if connect {
		// The sender computed d, so it closes its connect socket at the
		// delivery instant without waiting for the ack.
		e.After(d, func() { src.Meter.CloseSocket() })
	}

	arrive := func(first bool) func() {
		return func() {
			de := sc.g.Cell(dstCell)
			drep := sc.reps[dstCell]
			if drep.unreachable(from, to) {
				if !first {
					return // lost duplicate of a delivered message: silent
				}
				// Nack: the sender learns at its timeout, or as soon as
				// the nack can travel back, whichever is later.
				wait := timeoutAt - de.Now() - L
				if wait < 0 {
					wait = 0
				}
				sc.g.SendAfter(dstCell, srcCell, wait, func() {
					if onFailed != nil {
						onFailed()
					}
				})
				return
			}
			dst.Meter.CountMessage(false, size)
			if first && connect {
				dst.Meter.OpenSocket()
				de.After(L, func() { dst.Meter.CloseSocket() })
			}
			if onArrive != nil {
				onArrive()
			}
			if first && onAcked != nil {
				sc.g.SendAfter(dstCell, srcCell, 0, onAcked)
			}
		}
	}
	// d = scale(TransferTime(size), pathFactor) + ..., with pathFactor >= 1
	// and TransferTime >= L, so d-L is never negative: delivery is now+d.
	sc.g.SendAfter(srcCell, dstCell, d-L, arrive(true))
	if dup {
		// Retransmission after a lost ack: the payload lands a second
		// time one latency later; no second ack, no socket churn.
		sc.g.SendAfter(srcCell, dstCell, d, arrive(false))
	}
}
