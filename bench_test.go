// Package eslurm_test benchmarks the operation underlying every table and
// figure of the paper's evaluation, at the paper's node counts where a
// single operation is cheap and at reduced scale for the long-horizon
// drivers. `go test -bench=. -benchmem` regenerates the timing side of the
// reproduction; `go run ./cmd/benchrunner -all` regenerates the tables
// themselves.
package eslurm_test

import (
	"math/rand"
	"testing"
	"time"

	"eslurm/internal/alloc"
	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/controller"
	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/experiment"
	"eslurm/internal/fptree"
	"eslurm/internal/predict"
	"eslurm/internal/rm"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/topo"
	"eslurm/internal/trace"
)

// --- Fig. 5: trace locality analyses ---------------------------------------

func fig5Trace(b *testing.B) *trace.Trace {
	b.Helper()
	return trace.Generate(trace.Tianhe2AConfig(20000))
}

func BenchmarkFig5a_PCDF(b *testing.B) {
	tr := fig5Trace(b)
	ths := []float64{0.5, 1, 2, 4, 8, 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PCDF(ths)
	}
}

func BenchmarkFig5b_CorrelationVsInterval(b *testing.B) {
	tr := fig5Trace(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CorrelationVsInterval(40, 1000, rng)
	}
}

func BenchmarkFig5c_CorrelationVsIDGap(b *testing.B) {
	tr := fig5Trace(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CorrelationVsIDGap(1400, 100, 1000, rng)
	}
}

// --- Fig. 7a-e: master resource run -----------------------------------------

func BenchmarkFig7_MasterResourceHour(b *testing.B) {
	// One virtual hour of ESlurm managing 1,024 nodes under job flow.
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine(int64(i))
		c := cluster.New(e, cluster.Config{Computes: 1024, Satellites: 2})
		r := rm.NewESlurm(c)
		r.Start()
		e.RunUntil(time.Hour)
		r.Stop()
	}
}

// --- Fig. 7f: job occupation -------------------------------------------------

func benchOccupation(b *testing.B, mk func(c *cluster.Cluster) rm.RM) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		experiment.OccupationTime(new(experiment.Env), mk, 2048, 2048)
	}
}

func BenchmarkFig7f_Occupation_SGE(b *testing.B) {
	benchOccupation(b, func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, rm.SGEProfile()) })
}

func BenchmarkFig7f_Occupation_Slurm(b *testing.B) {
	benchOccupation(b, func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, rm.SlurmProfile()) })
}

func BenchmarkFig7f_Occupation_ESlurm(b *testing.B) {
	benchOccupation(b, func(c *cluster.Cluster) rm.RM { return rm.NewESlurm(c) })
}

// --- Fig. 8a: job-loading broadcast, Slurm tree vs ESlurm --------------------

func BenchmarkFig8a_SlurmTreeBroadcast4K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine(7)
		c := cluster.New(e, cluster.Config{Computes: 4096, Satellites: 1})
		bc := comm.NewBroadcaster(c)
		comm.KTree{Width: 50}.Broadcast(bc, c.Master().ID, c.Computes(), 4096, nil)
		e.Run()
	}
}

func BenchmarkFig8a_ESlurmBroadcast4K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine(7)
		c := cluster.New(e, cluster.Config{Computes: 4096, Satellites: 3})
		m := core.NewMaster(c, core.DefaultConfig(), nil)
		m.Start()
		e.RunUntil(time.Second)
		m.Broadcast(c.Computes(), 4096, nil)
		e.RunUntil(e.Now() + time.Minute)
		m.Stop()
	}
}

// --- Fig. 8b: structures under 10% failures ----------------------------------

func benchStructure(b *testing.B, s comm.Structure) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine(11)
		c := cluster.New(e, cluster.Config{Computes: 2048, Satellites: 1})
		for k := 0; k < 204; k++ {
			c.Fail(c.Computes()[k*10])
		}
		if fp, ok := s.(comm.FPTree); ok {
			fp.Predictor = predict.Oracle{Cluster: c}
			s = fp
		}
		bc := comm.NewBroadcaster(c)
		s.Broadcast(bc, c.Satellites()[0], c.Computes(), 4096, nil)
		e.Run()
	}
}

func BenchmarkFig8b_Ring(b *testing.B)      { benchStructure(b, comm.Ring{}) }
func BenchmarkFig8b_Star(b *testing.B)      { benchStructure(b, comm.Star{}) }
func BenchmarkFig8b_SharedMem(b *testing.B) { benchStructure(b, comm.SharedMem{}) }
func BenchmarkFig8b_KTree(b *testing.B)     { benchStructure(b, comm.KTree{}) }
func BenchmarkFig8b_FPTree(b *testing.B)    { benchStructure(b, comm.FPTree{}) }

// --- §VII-A placement: FP-Tree construction path ------------------------------

func BenchmarkPlacement_FPTreeConstruction4K(b *testing.B) {
	list := make([]cluster.NodeID, 4096)
	for i := range list {
		list[i] = cluster.NodeID(i + 3)
	}
	pred := func(id cluster.NodeID) bool { return id%50 == 0 } // ~2% regime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re := fptree.Rearrange(list, pred, fptree.DefaultWidth)
		fptree.Build(re, fptree.DefaultWidth)
	}
}

// --- Fig. 9 / Table V: full-scale heartbeat sweep ------------------------------

func benchHeartbeatSweep(b *testing.B, nodes, satellites int) {
	b.Helper()
	e := simnet.NewEngine(5)
	c := cluster.New(e, cluster.Config{Computes: nodes, Satellites: satellites})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	m.Start()
	e.RunUntil(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Broadcast(c.Computes(), 256, nil)
		e.RunUntil(e.Now() + time.Minute)
	}
	b.StopTimer()
	m.Stop()
}

func BenchmarkFig9_Heartbeat16K_2Sats(b *testing.B) { benchHeartbeatSweep(b, 16384, 2) }

func BenchmarkTable5_Heartbeat20K_20Sats(b *testing.B) { benchHeartbeatSweep(b, 20480, 20) }

// --- Fig. 11a: satellite-count sensitivity -------------------------------------

func BenchmarkFig11a_Heartbeat20K_50Sats(b *testing.B) { benchHeartbeatSweep(b, 20480, 50) }

// --- Fig. 10: scheduling replay -------------------------------------------------

func BenchmarkFig10_BackfillReplay(b *testing.B) {
	cfg := trace.Tianhe2AConfig(3000)
	cfg.MaxNodes = 1024
	jobs := trace.Generate(cfg).Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Run(jobs, sched.Config{Nodes: 1024, Policy: sched.Backfill, KillAtLimit: true})
	}
}

func BenchmarkFig10_BackfillWithEstimator(b *testing.B) {
	cfg := trace.Tianhe2AConfig(3000)
	cfg.MaxNodes = 1024
	jobs := trace.Generate(cfg).Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Run(jobs, sched.Config{
			Nodes: 1024, Policy: sched.Backfill, KillAtLimit: true,
			Predictor: sched.FrameworkWalltimes{F: estimate.NewFramework(estimate.FrameworkConfig{})},
		})
	}
}

// --- Table VIII / Fig. 11b: estimation framework --------------------------------

func BenchmarkTable8_FrameworkReplay(b *testing.B) {
	jobs := trace.Generate(trace.NGTianheConfig(1500)).Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate.Evaluate(estimate.NewFramework(estimate.FrameworkConfig{Alpha: 1.05}), jobs)
	}
}

func BenchmarkFig11b_PREPReplay(b *testing.B) {
	jobs := trace.Generate(trace.NGTianheConfig(5000)).Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate.Evaluate(estimate.NewPREP(), jobs)
	}
}

func BenchmarkFig11b_FrameworkPredict(b *testing.B) {
	// Steady-state single-job prediction latency (the real-time module's
	// event-handling cost).
	jobs := trace.Generate(trace.NGTianheConfig(3000)).Jobs
	f := estimate.NewFramework(estimate.FrameworkConfig{})
	for i := range jobs[:2000] {
		f.Predict(&jobs[i])
		f.Complete(&jobs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(&jobs[2000+i%900])
	}
}

// --- additional structures and subsystems -----------------------------------

func BenchmarkComm_GatherTree2K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine(9)
		c := cluster.New(e, cluster.Config{Computes: 2048, Satellites: 1})
		bc := comm.NewBroadcaster(c)
		comm.GatherTree{}.Broadcast(bc, c.Satellites()[0], c.Computes(), 2048, nil)
		e.Run()
	}
}

func BenchmarkComm_Binomial2K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine(9)
		c := cluster.New(e, cluster.Config{Computes: 2048, Satellites: 1})
		bc := comm.NewBroadcaster(c)
		comm.Binomial{}.Broadcast(bc, c.Satellites()[0], c.Computes(), 2048, nil)
		e.Run()
	}
}

func BenchmarkController_FullStackHour(b *testing.B) {
	// One virtual hour of the assembled daemon under job flow: the
	// end-to-end cost a deployment pays.
	for i := 0; i < b.N; i++ {
		e := simnet.NewEngine(int64(i))
		c := cluster.New(e, cluster.Config{Computes: 512, Satellites: 2})
		m := core.NewMaster(c, core.DefaultConfig(), nil)
		a := alloc.NewTopoAware(c.Computes(), topo.Default())
		ctl, err := controller.New(c, m, a, controller.Config{KillAtLimit: true})
		if err != nil {
			b.Fatal(err)
		}
		ctl.Start()
		rng := e.Rand("bench/jobs")
		for k := 0; k < 60; k++ {
			k := k
			e.Schedule(time.Duration(k)*time.Minute+time.Second, func() {
				ctl.Submit(controller.JobSpec{
					Name: "bench", User: "u", Nodes: 1 + rng.Intn(64),
					UserEstimate: 30 * time.Minute, Runtime: 10 * time.Minute,
				})
			})
		}
		e.RunUntil(2 * time.Hour)
		ctl.Stop()
	}
}
