package controller

import (
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/config"
	"eslurm/internal/core"
	"eslurm/internal/jobs"
	"eslurm/internal/simnet"
)

func twoPartitions(c *cluster.Cluster) []Partition {
	comps := c.Computes()
	return []Partition{
		{Name: "batch", Nodes: comps[:48], MaxTime: 2 * time.Hour, Default: true},
		{Name: "gpu", Nodes: comps[48:], MaxTime: 0},
	}
}

func TestPartitionRouting(t *testing.T) {
	e := simnet.NewEngine(32)
	c := cluster.New(e, cluster.Config{Computes: 64, Satellites: 1})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	ctl, err := New(c, m, Config{Partitions: twoPartitions(c), KillAtLimit: true})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	e.RunUntil(time.Second)

	// Default routing.
	id1, err := ctl.Submit(JobSpec{Name: "a", User: "u", Nodes: 8,
		UserEstimate: time.Hour, Runtime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Explicit partition.
	id2, err := ctl.Submit(JobSpec{Name: "b", User: "u", Partition: "gpu", Nodes: 8,
		UserEstimate: time.Hour, Runtime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(time.Hour)
	j1, j2 := ctl.Registry.Get(id1), ctl.Registry.Get(id2)
	if j1.Partition != "batch" || j2.Partition != "gpu" {
		t.Fatalf("partitions = %q, %q", j1.Partition, j2.Partition)
	}
	if j1.State() != jobs.Completed || j2.State() != jobs.Completed {
		t.Fatalf("states = %v, %v", j1.State(), j2.State())
	}
}

func TestPartitionRejections(t *testing.T) {
	e := simnet.NewEngine(33)
	c := cluster.New(e, cluster.Config{Computes: 64, Satellites: 1})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	ctl, err := New(c, m, Config{Partitions: twoPartitions(c)})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	e.RunUntil(time.Second)

	cases := []JobSpec{
		{Name: "x", User: "u", Partition: "nope", Nodes: 1, UserEstimate: time.Hour, Runtime: time.Minute},
		{Name: "x", User: "u", Nodes: 64, UserEstimate: time.Hour, Runtime: time.Minute},    // > batch's 48
		{Name: "x", User: "u", Nodes: 1, UserEstimate: 5 * time.Hour, Runtime: time.Minute}, // > MaxTime 2h
	}
	for i, spec := range cases {
		if _, err := ctl.Submit(spec); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
	if ctl.Metrics().Rejected != len(cases) {
		t.Errorf("rejected = %d", ctl.Metrics().Rejected)
	}
	// The gpu partition has no MaxTime: the long job is fine there.
	if _, err := ctl.Submit(JobSpec{Name: "x", User: "u", Partition: "gpu", Nodes: 1,
		UserEstimate: 5 * time.Hour, Runtime: time.Minute}); err != nil {
		t.Errorf("unlimited partition rejected a long job: %v", err)
	}
}

func TestPartitionsAreIndependentDomains(t *testing.T) {
	e := simnet.NewEngine(34)
	c := cluster.New(e, cluster.Config{Computes: 64, Satellites: 1})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	ctl, err := New(c, m, Config{Partitions: twoPartitions(c)})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	e.RunUntil(time.Second)

	// Saturate batch; a gpu job must still start immediately.
	ctl.Submit(JobSpec{Name: "fill", User: "u", Nodes: 48, UserEstimate: 2 * time.Hour, Runtime: 90 * time.Minute})
	e.RunUntil(2 * time.Minute)
	blocked, _ := ctl.Submit(JobSpec{Name: "wait", User: "u", Nodes: 8, UserEstimate: time.Hour, Runtime: time.Minute})
	gpu, _ := ctl.Submit(JobSpec{Name: "go", User: "u", Partition: "gpu", Nodes: 8, UserEstimate: time.Hour, Runtime: time.Minute})
	e.RunUntil(10 * time.Minute)
	if ctl.Registry.Get(gpu).State() == jobs.Pending {
		t.Error("gpu job blocked by batch saturation")
	}
	if ctl.Registry.Get(blocked).State() != jobs.Pending {
		t.Error("batch job ran without capacity")
	}
}

func TestDuplicateAndEmptyPartitionsRejected(t *testing.T) {
	e := simnet.NewEngine(35)
	c := cluster.New(e, cluster.Config{Computes: 16, Satellites: 1})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	comps := c.Computes()
	if _, err := New(c, m, Config{Partitions: []Partition{
		{Name: "p", Nodes: comps[:8]}, {Name: "p", Nodes: comps[8:]},
	}}); err == nil {
		t.Error("duplicate partitions accepted")
	}
	if _, err := New(c, m, Config{Partitions: []Partition{{Name: "empty"}}}); err == nil {
		t.Error("empty partition accepted")
	}
}

func TestPartitionsFromConfig(t *testing.T) {
	conf := `
SatelliteNodes=sat01
NodeName=cn[1-8] CPUs=4 RealMemory=1024
NodeName=gpu[1-4] CPUs=8 RealMemory=2048
PartitionName=batch Nodes=cn[1-8] MaxTime=120 Default=YES
PartitionName=gpu Nodes=gpu[1-4] MaxTime=INFINITE
`
	cfg, err := config.Parse(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	e := simnet.NewEngine(36)
	c := cluster.New(e, cluster.Config{Computes: cfg.ComputeCount(), Satellites: 1})
	parts, err := PartitionsFromConfig(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || len(parts[0].Nodes) != 8 || len(parts[1].Nodes) != 4 {
		t.Fatalf("parts = %+v", parts)
	}
	if !parts[0].Default || parts[0].MaxTime != 120*time.Minute {
		t.Errorf("batch partition = %+v", parts[0])
	}
	// Disjoint node sets.
	seen := map[cluster.NodeID]bool{}
	for _, p := range parts {
		for _, id := range p.Nodes {
			if seen[id] {
				t.Fatal("partitions share a node")
			}
			seen[id] = true
		}
	}
}

func TestPartitionsFromConfigUnknownHost(t *testing.T) {
	conf := `
NodeName=cn[1-4] CPUs=4 RealMemory=1024
PartitionName=p Nodes=cn[1-9]
`
	cfg, err := config.Parse(strings.NewReader(conf))
	if err != nil {
		t.Fatal(err)
	}
	e := simnet.NewEngine(37)
	c := cluster.New(e, cluster.Config{Computes: 4, Satellites: 1})
	if _, err := PartitionsFromConfig(cfg, c); err == nil {
		t.Error("unknown host accepted")
	}
}
