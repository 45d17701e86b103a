package cluster

import (
	"math/rand"

	"eslurm/internal/simnet"
)

// partition is one active network partition: messages between a member
// and a non-member fail in both directions until the partition heals.
type partition struct {
	member map[NodeID]bool
}

// faultState is everything the wire consults about faults beyond a node's
// own fail-stop flag (Node.failed): gray nodes, active partitions, and the
// loss and duplication coins. The Network holds the one instance.
type faultState struct {
	gray       map[NodeID]float64
	partitions []*partition

	lossRng *rand.Rand // derived lazily, only when LossProb > 0
	dupRng  *rand.Rand // derived lazily, only when DupProb > 0
}

// setGray marks a node gray (alive but slowed by factor > 1); a factor
// <= 1 clears the mark.
func (f *faultState) setGray(id NodeID, factor float64) {
	if factor <= 1 {
		delete(f.gray, id)
		return
	}
	if f.gray == nil {
		f.gray = make(map[NodeID]float64)
	}
	f.gray[id] = factor
}

// grayFactor returns the node's slowdown factor (1 when healthy).
func (f *faultState) grayFactor(id NodeID) float64 {
	if g, ok := f.gray[id]; ok {
		return g
	}
	return 1
}

// sever activates p; heal(p) deactivates it. Partitions compose: a link
// is severed if any active partition separates its endpoints.
func (f *faultState) sever(p *partition) { f.partitions = append(f.partitions, p) }

func (f *faultState) heal(p *partition) {
	for i, q := range f.partitions {
		if q == p {
			f.partitions = append(f.partitions[:i], f.partitions[i+1:]...)
			return
		}
	}
}

// severed reports whether an active partition separates the two nodes.
func (f *faultState) severed(from, to NodeID) bool {
	for _, p := range f.partitions {
		if p.member[from] != p.member[to] {
			return true
		}
	}
	return false
}

// unreachable reports whether a message from→to cannot be delivered right
// now: the destination is dead or a partition separates the endpoints.
func (f *faultState) unreachable(from, to *Node) bool {
	return to.failed || f.severed(from.ID, to.ID)
}

// pathFactor returns the multiplier gray endpoints impose on the from→to
// transfer: the larger endpoint factor, never below 1.
func (f *faultState) pathFactor(from, to NodeID) float64 {
	pf := 1.0
	if g := f.grayFactor(from); g > pf {
		pf = g
	}
	if g := f.grayFactor(to); g > pf {
		pf = g
	}
	return pf
}

// lost draws the in-transit loss coin from e's "cluster/network/loss"
// stream; a disabled coin (prob <= 0) draws nothing and derives nothing,
// so enabling loss never perturbs a configuration that has it off.
func (f *faultState) lost(e *simnet.Engine, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if f.lossRng == nil {
		f.lossRng = e.Rand("cluster/network/loss")
	}
	return f.lossRng.Float64() < prob
}

// duplicated draws the duplication coin from e's "cluster/network/dup"
// stream, under the same disabled-draws-nothing rule as lost.
func (f *faultState) duplicated(e *simnet.Engine, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if f.dupRng == nil {
		f.dupRng = e.Rand("cluster/network/dup")
	}
	return f.dupRng.Float64() < prob
}
