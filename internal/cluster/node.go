// Package cluster models the physical substrate the resource managers run
// on: nodes with roles and failure state, a latency/bandwidth network, and
// resource meters on the master and satellite daemons mirroring what the
// paper measures there (CPU time, virtual memory, resident memory,
// concurrent sockets). Compute nodes carry no meter: no result reads one.
//
// The paper evaluates on Tianhe-2A (16,384 nodes) and NG-Tianhe (20K+
// nodes); this package is the simulated stand-in for those machines (see
// DESIGN.md, "Substitutions").
//
// Determinism: all state changes (failures, recoveries, meter charges)
// happen inside events on the cluster's simnet engine, and network jitter
// draws from that engine's labeled RNG streams — same seed, same trace.
package cluster

import (
	"fmt"
	"slices"
	"time"

	"eslurm/internal/simnet"
)

// NodeID identifies a node within a Cluster. IDs are dense, starting at 0.
type NodeID int

// Role classifies a node's function in the RM architecture.
type Role uint8

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

// Node is one machine in the simulated cluster. It holds no pointer, so
// a cluster's node block is one 16-byte value per node that the garbage
// collector never scans. A node's meter, if it has one, is Cluster.Meter's.
type Node struct {
	ID     NodeID
	Role   Role
	failed bool
}

// Failed reports whether the node is currently down.
func (n *Node) Failed() bool { return n.failed }

// Cluster is a set of nodes plus the network connecting them, all on one
// simnet engine.
type Cluster struct {
	// Engine runs every node's events: the master, the satellites, the
	// computes and every control-plane component (pool, monitor,
	// reconciler).
	Engine *simnet.Engine
	Net    *Network

	nodes  []Node          // one block, indexed by NodeID
	meters []ResourceMeter // the daemons' block, indexed by NodeID 0..S
	// Built once by New: roles never change.
	satellites, computes []NodeID
}

// Config sizes a cluster. The default latency parameters approximate the
// paper's proprietary interconnect (25 Gbps per lane; sub-millisecond
// one-hop latency) at the granularity the experiments are sensitive to.
type Config struct {
	Computes   int
	Satellites int
	// Network overrides; zero values take defaults (see DefaultNetConfig).
	Net NetConfig
}

// New builds a cluster on e with one master node (ID 0),
// Config.Satellites satellite nodes (IDs 1..S) and Config.Computes compute
// nodes after them. The daemons, IDs 0..S, get one meter each.
func New(e *simnet.Engine, cfg Config) *Cluster {
	sats, computes := max(cfg.Satellites, 0), max(cfg.Computes, 0)
	c := &Cluster{Engine: e, nodes: make([]Node, 1+sats+computes), meters: make([]ResourceMeter, 1+sats),
		satellites: make([]NodeID, 0, sats), computes: make([]NodeID, 0, computes)}
	for i := range c.nodes {
		n := &c.nodes[i]
		n.ID = NodeID(i)
		switch {
		case i == 0:
			n.Role = RoleMaster
		case i <= sats:
			n.Role = RoleSatellite
			c.satellites = append(c.satellites, n.ID)
		default:
			n.Role = RoleCompute
			c.computes = append(c.computes, n.ID)
		}
	}
	c.Net = newNetwork(c, cfg.Net.withDefaults())
	return c
}

// RunUntil executes events with time ≤ deadline and advances the clock to
// it (simnet.Engine.RunUntil).
func (c *Cluster) RunUntil(deadline time.Duration) { c.Engine.RunUntil(deadline) }

// RunUntilDone executes events with time ≤ deadline until done reports
// true and returns whether it did; the clock stays at the answer rather
// than moving to the deadline (simnet.Engine.RunUntilDone).
func (c *Cluster) RunUntilDone(deadline time.Duration, done func() bool) bool {
	return c.Engine.RunUntilDone(deadline, done)
}

// Run executes events until none is left.
func (c *Cluster) Run() { c.Engine.Run() }

// Master returns the master node (always ID 0).
func (c *Cluster) Master() *Node { return &c.nodes[0] }

// Node returns the node with the given ID. It panics on out-of-range IDs:
// that is always a programming error in an experiment driver.
func (c *Cluster) Node(id NodeID) *Node { return &c.nodes[id] }

// Meter returns the resource meter of the master or a satellite, and nil
// for a compute node, which has none. ResourceMeter's recording methods
// do nothing on nil, so a sender or relay charges whatever node it runs
// on without asking which kind it is.
func (c *Cluster) Meter(id NodeID) *ResourceMeter {
	if int(id) < len(c.meters) {
		return &c.meters[id]
	}
	return nil
}

// Size returns the total number of nodes, including master and satellites.
func (c *Cluster) Size() int { return len(c.nodes) }

// Satellites returns the IDs of all satellite nodes in ID order. Like
// Computes, the slice is the cluster's own, read-only and clipped.
func (c *Cluster) Satellites() []NodeID { return slices.Clip(c.satellites) }

// Computes returns the IDs of all compute nodes in ID order. The slice is
// the cluster's own and is read-only: every call returns the same backing
// array, clipped so an append copies rather than writing past its end.
// A caller that means to reorder or edit it copies it first.
func (c *Cluster) Computes() []NodeID { return slices.Clip(c.computes) }

// Fail marks a node as failed. Message deliveries to it will time out at
// the sender. Failing an already-failed node is a no-op.
func (c *Cluster) Fail(id NodeID) { c.nodes[id].failed = true }

// Recover brings a failed node back.
func (c *Cluster) Recover(id NodeID) { c.nodes[id].failed = false }

// FailedCount returns the number of currently failed nodes.
func (c *Cluster) FailedCount() int {
	k := 0
	for i := range c.nodes {
		if c.nodes[i].failed {
			k++
		}
	}
	return k
}

// ScheduleFailure injects a fail-stop at virtual time at; if recover > 0 the
// node comes back after that additional delay. It returns immediately.
func (c *Cluster) ScheduleFailure(id NodeID, at, recoverAfter time.Duration) {
	e := c.Engine
	e.Schedule(at, func() {
		c.Fail(id)
		if recoverAfter > 0 {
			e.After(recoverAfter, func() { c.Recover(id) })
		}
	})
}
