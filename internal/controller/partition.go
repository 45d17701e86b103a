package controller

import (
	"fmt"
	"time"

	"eslurm/internal/alloc"
	"eslurm/internal/cluster"
	"eslurm/internal/config"
	"eslurm/internal/topo"
)

// Partition is a named slice of the cluster with its own limits — the
// slurm.conf PartitionName record realized.
type Partition struct {
	Name  string
	Nodes []cluster.NodeID
	// MaxTime caps a job's walltime request; zero means unlimited.
	MaxTime time.Duration
	// Default receives jobs that name no partition.
	Default bool
}

// partitionState is the controller's per-partition scheduling state.
type partitionState struct {
	def       Partition
	allocator *alloc.TopoAware
	running   []*runningInfo
}

// remove drops a finished job from the running list.
func (ps *partitionState) remove(run *runningInfo) {
	for i, r := range ps.running {
		if r == run {
			ps.running = append(ps.running[:i], ps.running[i+1:]...)
			return
		}
	}
}

// PartitionsFromConfig maps a parsed configuration's partitions onto the
// simulated cluster: the i-th configured compute hostname is the i-th
// compute NodeID. Hosts outside any NodeName record are rejected.
func PartitionsFromConfig(cfg *config.Config, c *cluster.Cluster) ([]Partition, error) {
	// hostname -> NodeID by configuration order.
	byHost := make(map[string]cluster.NodeID)
	computes := c.Computes()
	idx := 0
	for _, nd := range cfg.Nodes {
		for _, h := range nd.Names {
			if idx >= len(computes) {
				return nil, fmt.Errorf("controller: config names %d+ compute nodes, cluster has %d",
					idx+1, len(computes))
			}
			byHost[h] = computes[idx]
			idx++
		}
	}
	var out []Partition
	for _, pd := range cfg.Partitions {
		p := Partition{Name: pd.Name, MaxTime: pd.MaxTime, Default: pd.Default}
		for _, h := range pd.Nodes {
			id, ok := byHost[h]
			if !ok {
				return nil, fmt.Errorf("controller: partition %q references unknown host %q", pd.Name, h)
			}
			p.Nodes = append(p.Nodes, id)
		}
		out = append(out, p)
	}
	return out, nil
}

// buildPartitions materializes the controller's partition table, in
// configuration order. With no configured partitions, every compute node
// lands in one default "batch" partition.
func (ctl *Controller) buildPartitions(parts []Partition) error {
	if len(parts) == 0 {
		parts = []Partition{{Name: "batch", Nodes: ctl.Cluster.Computes(), Default: true}}
	}
	for _, p := range parts {
		if ctl.partition(p.Name) != nil {
			return fmt.Errorf("controller: duplicate partition %q", p.Name)
		}
		if len(p.Nodes) == 0 {
			return fmt.Errorf("controller: partition %q has no nodes", p.Name)
		}
		ps := &partitionState{def: p, allocator: alloc.NewTopoAware(p.Nodes, topo.Default())}
		ctl.partitions = append(ctl.partitions, ps)
		if p.Default && ctl.defaultPart == nil {
			ctl.defaultPart = ps
		}
	}
	if ctl.defaultPart == nil {
		// First configured partition becomes the default, as in Slurm when
		// none is flagged.
		ctl.defaultPart = ctl.partitions[0]
	}
	return nil
}

// partition looks a partition up by name; nil if there is none.
func (ctl *Controller) partition(name string) *partitionState {
	for _, ps := range ctl.partitions {
		if ps.def.Name == name {
			return ps
		}
	}
	return nil
}

// resolvePartition picks the job's partition and validates the request
// against it.
func (ctl *Controller) resolvePartition(spec *JobSpec) (*partitionState, error) {
	ps := ctl.defaultPart
	if spec.Partition != "" {
		ps = ctl.partition(spec.Partition)
	}
	if ps == nil {
		return nil, fmt.Errorf("controller: unknown partition %q", spec.Partition)
	}
	if spec.Nodes > len(ps.def.Nodes) {
		return nil, fmt.Errorf("controller: job needs %d nodes, partition %q has %d",
			spec.Nodes, ps.def.Name, len(ps.def.Nodes))
	}
	if ps.def.MaxTime > 0 && spec.UserEstimate > ps.def.MaxTime {
		return nil, fmt.Errorf("controller: requested %v exceeds partition %q MaxTime %v",
			spec.UserEstimate, ps.def.Name, ps.def.MaxTime)
	}
	return ps, nil
}
