// Package topo models cluster topology — the rack/chassis/board hierarchy
// of the Tianhe systems — and provides topology-aware nodelist ordering
// for communication trees.
//
// Section IV-E's closing paragraph describes the composition this package
// enables: "for systems that use topological information to optimize
// communication, the communication tree can be constructed first using
// topology-aware techniques and then fine-tuned using the FP-Tree
// constructor. This approach can reduce the impact of failed nodes while
// preserving the topology-aware properties of the tree."
//
// Determinism: layouts and orderings are pure functions of node IDs and
// shape parameters — no RNG, no map iteration — so tree fine-tuning is
// reproducible under the same-seed ⇒ same-trace contract.
package topo

import (
	"sort"

	"eslurm/internal/cluster"
	"eslurm/internal/fptree"
)

// Topology places nodes into a board → chassis → rack hierarchy by ID.
type Topology struct {
	// NodesPerBoard, BoardsPerChassis, ChassisPerRack define the levels.
	NodesPerBoard    int
	BoardsPerChassis int
	ChassisPerRack   int
}

// Default returns the Tianhe-like hierarchy: 8 nodes per board, 16 boards
// per chassis, 4 chassis per rack (512 nodes per rack).
func Default() Topology {
	return Topology{NodesPerBoard: 8, BoardsPerChassis: 16, ChassisPerRack: 4}
}

// Board returns the node's board index.
func (t Topology) Board(id cluster.NodeID) int { return int(id) / t.NodesPerBoard }

// Chassis returns the node's chassis index.
func (t Topology) Chassis(id cluster.NodeID) int { return t.Board(id) / t.BoardsPerChassis }

// Rack returns the node's rack index.
func (t Topology) Rack(id cluster.NodeID) int { return t.Chassis(id) / t.ChassisPerRack }

// NodesPerRack returns the rack capacity.
func (t Topology) NodesPerRack() int {
	return t.NodesPerBoard * t.BoardsPerChassis * t.ChassisPerRack
}

// Hops returns the network distance class between two nodes: 0 same
// board, 1 same chassis, 2 same rack, 3 cross-rack. Communication latency
// grows with the class.
func (t Topology) Hops(a, b cluster.NodeID) int {
	switch {
	case t.Board(a) == t.Board(b):
		return 0
	case t.Chassis(a) == t.Chassis(b):
		return 1
	case t.Rack(a) == t.Rack(b):
		return 2
	default:
		return 3
	}
}

// Order sorts a nodelist topology-first (rack, chassis, board, id), the
// "topology-aware technique" whose ordering the FP-Tree fine-tuner then
// adjusts. The input is not modified.
func (t Topology) Order(list []cluster.NodeID) []cluster.NodeID {
	out := append([]cluster.NodeID(nil), list...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ra, rb := t.Rack(a), t.Rack(b); ra != rb {
			return ra < rb
		}
		if ca, cb := t.Chassis(a), t.Chassis(b); ca != cb {
			return ca < cb
		}
		if ba, bb := t.Board(a), t.Board(b); ba != bb {
			return ba < bb
		}
		return a < b
	})
	return out
}

// TreeCost scores a relay tree by summing the hop classes of every
// parent→child edge (origin edges use cross-rack cost 3, as the satellite
// sits outside the participant racks). Lower is better; topology-aware
// ordering minimizes it by keeping subtrees rack-local.
func (t Topology) TreeCost(tr *fptree.Tree[cluster.NodeID]) int {
	cost := 0
	var rec func(parent cluster.NodeID, nodes []*fptree.Node[cluster.NodeID], fromOrigin bool)
	rec = func(parent cluster.NodeID, nodes []*fptree.Node[cluster.NodeID], fromOrigin bool) {
		for _, n := range nodes {
			if fromOrigin {
				cost += 3
			} else {
				cost += t.Hops(parent, n.Value)
			}
			rec(n.Value, n.Children, false)
		}
	}
	rec(0, tr.Roots, true)
	return cost
}

// PlanFPTree produces the §IV-E composed ordering: topology-aware sort
// first, then the FP-Tree fine-tuner swaps predicted-failed nodes into
// leaf slots with the minimum number of moves, preserving the rest of the
// topology-aware order. It returns the final list and the number of
// fine-tune swaps.
func (t Topology) PlanFPTree(list []cluster.NodeID, predicted func(cluster.NodeID) bool, width int) ([]cluster.NodeID, int) {
	ordered := t.Order(list)
	swaps := fptree.FineTune(ordered, predicted, width)
	return ordered, swaps
}
