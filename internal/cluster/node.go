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
// happen inside events on the cluster's simnet engine, and network jitter
// draws from that engine's labeled RNG streams — same seed, same trace.
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
	ID    NodeID
	Role  Role
	Meter ResourceMeter

	net *Network
}

// Failed reports whether the node is currently down.
func (n *Node) Failed() bool { return n.net.failed[n.ID] }

// Cluster is a set of nodes plus the network connecting them, all on one
// simnet engine.
type Cluster struct {
	// Engine runs every node's events: the master, the satellites, the
	// computes and every control-plane component (pool, monitor,
	// reconciler).
	Engine *simnet.Engine
	Net    *Network

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
}

// New builds a cluster on e with one master node (ID 0),
// Config.Satellites satellite nodes (IDs 1..S) and Config.Computes compute
// nodes after them.
func New(e *simnet.Engine, cfg Config) *Cluster {
	c := &Cluster{Engine: e}
	add := func(role Role) {
		n := &Node{ID: NodeID(len(c.nodes)), Role: role}
		n.Meter.engine = e
		c.nodes = append(c.nodes, n)
	}
	add(RoleMaster)
	for i := 0; i < cfg.Satellites; i++ {
		add(RoleSatellite)
	}
	for i := 0; i < cfg.Computes; i++ {
		add(RoleCompute)
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

// Fail marks a node as failed. Message deliveries to it will time out at
// the sender. Failing an already-failed node is a no-op.
func (c *Cluster) Fail(id NodeID) { c.Net.failed[id] = true }

// Recover brings a failed node back.
func (c *Cluster) Recover(id NodeID) { c.Net.failed[id] = false }

// FailedCount returns the number of currently failed nodes.
func (c *Cluster) FailedCount() int {
	k := 0
	for _, f := range c.Net.failed {
		if f {
			k++
		}
	}
	return k
}

// ScheduleFailure injects a fail-stop at virtual time at; if recover > 0 the
// node comes back after that additional delay. It returns immediately.
func (c *Cluster) ScheduleFailure(id NodeID, at, recoverAfter time.Duration) {
	e, failed := c.Engine, c.Net.failed
	e.Schedule(at, func() {
		failed[id] = true
		if recoverAfter > 0 {
			e.After(recoverAfter, func() { failed[id] = false })
		}
	})
}
