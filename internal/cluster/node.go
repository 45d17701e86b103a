// Package cluster models the physical substrate the resource managers run
// on: nodes with roles and failure state, a latency/bandwidth network, and
// per-node resource meters mirroring what the paper measures on the master
// daemon (CPU time, virtual memory, resident memory, concurrent sockets).
//
// The paper evaluates on Tianhe-2A (16,384 nodes) and NG-Tianhe (20K+
// nodes); this package is the simulated stand-in for those machines (see
// DESIGN.md, "Substitutions").
//
// Determinism: all state changes (failures, recoveries, meter charges)
// happen inside events on the owning cell's simnet engine, and network
// jitter draws from that engine's labeled RNG streams — same seed, same
// trace.
package cluster

import (
	"fmt"
	"time"

	"eslurm/internal/simnet"
)

// NodeID identifies a node within a Cluster. IDs are dense, starting at 0.
type NodeID int

// Role classifies a node's function in the RM architecture.
type Role int

const (
	// RoleCompute nodes run user jobs (the paper's "slave" nodes).
	RoleCompute Role = iota
	// RoleSatellite nodes relay communication between master and compute
	// nodes. They hold no persistent system state.
	RoleSatellite
	// RoleMaster hosts the RM control daemon (slurmctld equivalent).
	RoleMaster
)

func (r Role) String() string {
	switch r {
	case RoleCompute:
		return "compute"
	case RoleSatellite:
		return "satellite"
	case RoleMaster:
		return "master"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Node is one machine in the simulated cluster.
type Node struct {
	ID   NodeID
	Role Role
	// Cell is the node's home cell: the one engine its meter and model
	// events live on (always 0 on a one-cell cluster).
	Cell  int
	Meter ResourceMeter

	view    *cellView // the home cell's replica of the fault state
	control *cellView // cell 0's
}

// Failed reports whether the node is currently down, as the control cell
// (cell 0) sees it. Code running on another cell asks Cluster.FailedOn.
func (n *Node) Failed() bool { return n.control.failed[n.ID] }

// Cluster is a set of nodes plus the network connecting them, spread over
// the cells of one simnet.ShardGroup. A single engine is a one-cell group;
// see DESIGN.md §4 for what a partitioning may and may not change.
type Cluster struct {
	// Engine is cell 0, the control cell: the master, the satellites and
	// every control-plane component (pool, monitor, reconciler) live on it.
	// On a one-cell cluster it is the only engine.
	Engine *simnet.Engine
	Net    *Network

	group *simnet.ShardGroup
	nodes []*Node
}

// Config sizes a cluster. The default latency parameters approximate the
// paper's proprietary interconnect (25 Gbps per lane; sub-millisecond
// one-hop latency) at the granularity the experiments are sensitive to.
type Config struct {
	Computes   int
	Satellites int
	// Network overrides; zero values take defaults (see DefaultNetConfig).
	Net NetConfig
	// Cells is the number of engine cells the cluster is partitioned over
	// (below 1 means one), and CellOf maps each node to its home cell in
	// [0, Cells); nil homes everything on cell 0. The mapping must depend
	// only on the model (IDs, roles, topology). With more than one cell the
	// effective link Latency must be positive: it is the group's lookahead.
	Cells  int
	CellOf func(id NodeID, role Role) int
}

// New builds a cluster with one master node (ID 0), Config.Satellites
// satellite nodes (IDs 1..S) and Config.Computes compute nodes after them.
// The engine e becomes cell 0, untouched, so a one-cell cluster runs on e
// exactly as if there were no group; further cells derive their seeds from
// e's.
func New(e *simnet.Engine, cfg Config) *Cluster {
	net := cfg.Net.withDefaults()
	cells := cfg.Cells
	if cells < 1 {
		cells = 1
	}
	look := net.Latency
	if look <= 0 {
		if cells > 1 {
			panic("cluster: a multi-cell cluster needs a positive link latency (it is the lookahead bound)")
		}
		look = time.Hour // nothing crosses a boundary, so the window width is free
	}
	c := &Cluster{Engine: e, group: simnet.GroupAround(e, cells, look)}
	add := func(role Role) {
		n := &Node{ID: NodeID(len(c.nodes)), Role: role}
		if cfg.CellOf != nil {
			n.Cell = cfg.CellOf(n.ID, role)
			if n.Cell < 0 || n.Cell >= cells {
				panic("cluster: CellOf returned a cell out of range")
			}
		}
		n.Meter.engine = c.group.Cell(n.Cell)
		c.nodes = append(c.nodes, n)
	}
	add(RoleMaster)
	for i := 0; i < cfg.Satellites; i++ {
		add(RoleSatellite)
	}
	for i := 0; i < cfg.Computes; i++ {
		add(RoleCompute)
	}
	c.Net = newNetwork(c, net)
	return c
}

// Group returns the shard group the cluster sits on (digests, tracing,
// merged metrics).
func (c *Cluster) Group() *simnet.ShardGroup { return c.group }

// EngineOf returns the engine of a node's home cell: the only engine that
// node's model events and meter may touch.
func (c *Cluster) EngineOf(id NodeID) *simnet.Engine { return c.group.Cell(c.nodes[id].Cell) }

// RunUntil executes every cell's events with time ≤ deadline and advances
// the clocks to it. One cell runs its engine directly; several run the
// group's windowed protocol.
func (c *Cluster) RunUntil(deadline time.Duration) {
	if c.group.Cells() == 1 {
		c.Engine.RunUntil(deadline)
		return
	}
	c.group.RunUntil(deadline)
}

// Run executes events until no cell has one left.
func (c *Cluster) Run() {
	if c.group.Cells() == 1 {
		c.Engine.Run()
		return
	}
	c.group.Run()
}

// Master returns the master node (always ID 0).
func (c *Cluster) Master() *Node { return c.nodes[0] }

// Node returns the node with the given ID. It panics on out-of-range IDs:
// that is always a programming error in an experiment driver.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Size returns the total number of nodes, including master and satellites.
func (c *Cluster) Size() int { return len(c.nodes) }

// Satellites returns the IDs of all satellite nodes in ID order.
func (c *Cluster) Satellites() []NodeID {
	var out []NodeID
	for _, n := range c.nodes {
		if n.Role == RoleSatellite {
			out = append(out, n.ID)
		}
	}
	return out
}

// Computes returns the IDs of all compute nodes in ID order.
func (c *Cluster) Computes() []NodeID {
	out := make([]NodeID, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Role == RoleCompute {
			out = append(out, n.ID)
		}
	}
	return out
}

// Fail marks a node as failed, now, on every cell. Message deliveries to
// it will time out at the sender. Failing an already-failed node is a
// no-op. Like every immediate fault mutation it is legal from inside an
// event only on a one-cell cluster (see Network.flip).
func (c *Cluster) Fail(id NodeID) { c.Net.flip(func(v *cellView) { v.failed[id] = true }) }

// Recover brings a failed node back.
func (c *Cluster) Recover(id NodeID) { c.Net.flip(func(v *cellView) { v.failed[id] = false }) }

// FailedOn reports id's fail-stop state as viewer's home cell sees it —
// the read for code executing on that cell.
func (c *Cluster) FailedOn(viewer, id NodeID) bool { return c.Net.view(viewer).failed[id] }

// FailedCount returns the number of currently failed nodes (the control
// cell's view).
func (c *Cluster) FailedCount() int {
	k := 0
	for _, f := range c.Net.views[0].failed {
		if f {
			k++
		}
	}
	return k
}

// ScheduleFailure injects a fail-stop at virtual time at; if recover > 0 the
// node comes back after that additional delay. It returns immediately.
func (c *Cluster) ScheduleFailure(id NodeID, at, recoverAfter time.Duration) {
	c.Net.flipAt(at, func(v *cellView) {
		v.failed[id] = true
		if recoverAfter > 0 {
			v.e.After(recoverAfter, func() { v.failed[id] = false })
		}
	})
}
