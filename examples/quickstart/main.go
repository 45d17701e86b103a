// Quickstart: build a simulated 1,024-node cluster, boot the ESlurm
// master with two satellite nodes, broadcast a message to every compute
// node, and launch one job — the minimal tour of the core API.
package main

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/simnet"
)

func main() {
	// Everything runs on a deterministic discrete-event engine: virtual
	// time, reproducible for a given seed.
	engine := simnet.NewEngine(42)
	c := cluster.New(engine, cluster.Config{Computes: 1024, Satellites: 2})

	// The ESlurm master: hierarchical RM with satellite relays (Eq. 1
	// decides how many satellites each broadcast uses).
	master := core.NewMaster(c, core.DefaultConfig(), nil)
	master.Start()
	engine.RunUntil(time.Second) // let the satellite probes complete

	fmt.Printf("cluster: %d computes, %d satellites, master node %d\n",
		len(c.Computes()), len(c.Satellites()), c.Master().ID)
	fmt.Printf("satellite fanout per Eq. 1: N(%d targets) = %d\n",
		len(c.Computes()), master.SatelliteFanout(len(c.Computes())))

	// Broadcast a 4 KB message to every compute node through the
	// satellite layer.
	var res comm.Result
	master.Broadcast(c.Computes(), 4096, func(r comm.Result) { res = r })
	engine.RunUntil(engine.Now() + time.Minute)
	fmt.Printf("broadcast: delivered %d/%d in %v using %d messages\n",
		res.Delivered, len(c.Computes()), res.DeliveredElapsed.Round(time.Microsecond), res.Messages)

	// Launch and terminate a 256-node job.
	jobNodes := c.Computes()[:256]
	var loaded comm.Result
	master.LoadJob(jobNodes, func(r comm.Result) { loaded = r })
	engine.RunUntil(engine.Now() + time.Minute)
	fmt.Printf("job spawned on %d nodes in %v (active jobs: %d)\n",
		loaded.Delivered, loaded.DeliveredElapsed.Round(time.Microsecond), master.ActiveJobs())

	master.TerminateJob(jobNodes, nil)
	engine.RunUntil(engine.Now() + time.Minute)
	fmt.Printf("job terminated (active jobs: %d)\n", master.ActiveJobs())

	// The headline scalability property: the master only ever talked to
	// its satellites.
	_, out := c.Meter(c.Master().ID).Messages()
	fmt.Printf("master sent just %d messages for %d deliveries; peak sockets: %d\n",
		out, res.Delivered+loaded.Delivered+256, c.Meter(c.Master().ID).PeakSockets())
}
