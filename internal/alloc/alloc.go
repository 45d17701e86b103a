// Package alloc implements node selection for job placement: given a free
// set, pick the concrete nodes a job runs on. Placement is topology-aware:
// it minimizes the racks a job spans, which keeps MPI traffic rack-local
// and job launch broadcasts shallow.
//
// Determinism: placement is a pure function of the free list's order —
// no RNG, no map iteration, no clocks — so the same cluster state always
// yields the same placement, which the same-seed ⇒ same-trace contract
// requires of anything the scheduler calls.
package alloc

import (
	"fmt"
	"sort"

	"eslurm/internal/cluster"
	"eslurm/internal/topo"
)

// TopoAware packs jobs into as few racks as possible: racks are filled
// best-fit (fullest rack that still fits first), splitting across racks
// only when no single rack suffices.
type TopoAware struct {
	tp     topo.Topology
	free   []cluster.NodeID // sorted
	inUse  map[cluster.NodeID]bool
	member map[cluster.NodeID]bool
}

// NewTopoAware builds a topology-aware allocator over the node set.
func NewTopoAware(nodes []cluster.NodeID, tp topo.Topology) *TopoAware {
	a := &TopoAware{
		tp:     tp,
		inUse:  make(map[cluster.NodeID]bool, len(nodes)),
		member: make(map[cluster.NodeID]bool, len(nodes)),
	}
	a.free = append(a.free, nodes...)
	sort.Slice(a.free, func(i, j int) bool { return a.free[i] < a.free[j] })
	for _, id := range a.free {
		a.member[id] = true
	}
	return a
}

// Alloc reserves n nodes, returning them, or ok=false leaving state
// unchanged when fewer than n are free.
func (a *TopoAware) Alloc(n int) ([]cluster.NodeID, bool) {
	if n <= 0 || n > len(a.free) {
		return nil, false
	}
	// Bucket the free list per rack (free list is sorted, racks are ID
	// ranges, so buckets stay sorted).
	byRack := map[int][]cluster.NodeID{}
	var racks []int
	for _, id := range a.free {
		r := a.tp.Rack(id)
		if len(byRack[r]) == 0 {
			racks = append(racks, r)
		}
		byRack[r] = append(byRack[r], id)
	}
	// Single-rack fit: the fullest-fitting rack (smallest count >= n).
	bestRack, bestCount := -1, 1<<62
	for _, r := range racks {
		if c := len(byRack[r]); c >= n && c < bestCount {
			bestRack, bestCount = r, c
		}
	}
	var out []cluster.NodeID
	if bestRack >= 0 {
		out = append(out, byRack[bestRack][:n]...)
	} else {
		// Spill: take the largest racks first to span as few as possible.
		sort.Slice(racks, func(i, j int) bool {
			return len(byRack[racks[i]]) > len(byRack[racks[j]])
		})
		need := n
		for _, r := range racks {
			take := len(byRack[r])
			if take > need {
				take = need
			}
			out = append(out, byRack[r][:take]...)
			need -= take
			if need == 0 {
				break
			}
		}
	}
	a.take(out)
	return out, true
}

// take removes the given nodes (which must all be free) from the free
// list.
func (a *TopoAware) take(nodes []cluster.NodeID) {
	taken := make(map[cluster.NodeID]bool, len(nodes))
	for _, id := range nodes {
		taken[id] = true
		a.inUse[id] = true
	}
	out := a.free[:0]
	for _, id := range a.free {
		if !taken[id] {
			out = append(out, id)
		}
	}
	a.free = out
}

// Free returns nodes to the pool. Freeing an unallocated node panics: it
// is always a scheduler bug.
func (a *TopoAware) Free(nodes []cluster.NodeID) {
	for _, id := range nodes {
		if !a.member[id] {
			panic(fmt.Sprintf("alloc: freeing foreign node %d", id))
		}
		if !a.inUse[id] {
			panic(fmt.Sprintf("alloc: double free of node %d", id))
		}
		delete(a.inUse, id)
		a.free = append(a.free, id)
	}
	sort.Slice(a.free, func(i, j int) bool { return a.free[i] < a.free[j] })
}

// FreeCount reports currently available nodes.
func (a *TopoAware) FreeCount() int { return len(a.free) }

// RacksSpanned counts the distinct racks of an allocation — the locality
// metric topology-aware placement minimizes.
func RacksSpanned(tp topo.Topology, nodes []cluster.NodeID) int {
	seen := map[int]bool{}
	for _, id := range nodes {
		seen[tp.Rack(id)] = true
	}
	return len(seen)
}
