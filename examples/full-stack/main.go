// Full-stack: the assembled ESlurm daemon from configuration file to
// completed jobs — config parsing (hostlists and the ESlurm additions),
// topology-aware node allocation, the multifactor-priority job table,
// EASY backfill, satellite-relayed launch broadcasts, and the runtime-
// estimation framework feeding walltimes back into the scheduler.
package main

import (
	"fmt"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/config"
	"eslurm/internal/controller"
	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/hostlist"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/trace"
)

const conf = `
ClusterName=demo
ControlMachine=mgmt01
SatelliteNodes=sat[01-02]
TreeWidth=32
ReallocLimit=2
HeartbeatInterval=150s
EstimatorWindow=400
EstimatorRefresh=6h
EstimatorK=20
EstimatorAlpha=1.05
NodeName=cn[0001-0512] CPUs=24 RealMemory=65536
PartitionName=batch Nodes=cn[0001-0512] MaxTime=7200 Default=YES
`

func main() {
	// 1. Configuration.
	cfg, err := config.Parse(strings.NewReader(conf))
	if err != nil {
		panic(err)
	}
	fmt.Printf("cluster %q: %d compute nodes (%s...), %d satellites\n",
		cfg.ClusterName, cfg.ComputeCount(),
		hostlist.Compress(cfg.Nodes[0].Names[:4]), len(cfg.SatelliteNodes))

	// 2. Assemble the daemon.
	e := simnet.NewEngine(2026)
	c := cluster.New(e, cluster.Config{
		Computes:   cfg.ComputeCount(),
		Satellites: len(cfg.SatelliteNodes),
	})
	master := core.NewMaster(c, cfg.CoreConfig(), nil)
	parts, err := controller.PartitionsFromConfig(cfg, c)
	if err != nil {
		panic(err)
	}
	fw := estimate.NewFramework(cfg.FrameworkConfig())
	ctl, err := controller.New(c, master, controller.Config{
		Predictor:  sched.FrameworkWalltimes{F: fw},
		Partitions: parts,
	})
	if err != nil {
		panic(err)
	}
	ctl.Start()
	e.RunUntil(time.Second)

	// 3. Replay a synthetic workload through the controller.
	genCfg := trace.Tianhe2AConfig(1200)
	genCfg.MaxNodes = cfg.ComputeCount()
	tr := trace.Generate(genCfg)
	for i := range tr.Jobs {
		j := tr.Jobs[i]
		if j.Nodes > cfg.ComputeCount() {
			continue
		}
		e.Schedule(time.Second+j.Submit, func() {
			ctl.Submit(controller.JobSpec{
				Name: j.Name, User: j.User, Nodes: j.Nodes, Cores: j.Cores,
				UserEstimate: j.UserEstimate, Runtime: j.Runtime,
			})
		})
	}

	// Periodic status line, like watching squeue.
	e.Every(5*24*time.Hour, func() {
		m := ctl.Metrics()
		fmt.Printf("t=%5s  queued=%-3d running=%-3d completed=%-4d timeouts=%d\n",
			e.Now().Round(time.Hour), ctl.QueueDepth(), ctl.RunningCount(),
			m.Completed, m.TimedOut)
	})
	e.RunUntil(35 * 24 * time.Hour)
	ctl.Stop()
	e.RunUntil(e.Now() + time.Hour)

	// 4. The outcome.
	m := ctl.Metrics()
	fmt.Printf("\nworkload done: %d submitted, %d completed, %d killed at limit, %d rejected\n",
		m.Submitted, m.Completed, m.TimedOut, m.Rejected)
	fmt.Printf("avg queue wait %v; avg spawn broadcast %v across %d launches\n",
		m.AvgWait().Round(time.Second), m.AvgSpawn().Round(time.Microsecond), m.SpawnReps)
	fmt.Printf("estimator: %d model generations trained during the replay\n", fw.Generations)
	st := master.Stats()
	fmt.Printf("master: %d broadcasts via %d satellite sub-tasks, %d reallocations, %d takeovers\n",
		st.Broadcasts, st.SubTasks, st.Reallocations, st.MasterTakeovers)
	mm := master.Meter()
	fmt.Printf("master footprint: cpu=%v rss=%.1fMB peak sockets=%d\n",
		mm.CPUTime().Round(time.Millisecond), float64(mm.RSS())/(1<<20), mm.PeakSockets())
}
