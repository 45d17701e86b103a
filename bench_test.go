// Package eslurm_test benchmarks the operations of the paper's evaluation
// that no bench/ workload or probe times: the Fig. 5 trace analyses, the
// Fig. 7 master hour, PREP replay, two extra broadcast structures and the
// full controller stack. Wall-clock for everything else is bench/'s to
// measure; `go run ./cmd/benchrunner -all` regenerates the tables.
package eslurm_test

import (
	"math/rand"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/controller"
	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/rm"
	"eslurm/internal/simnet"
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

// --- Fig. 11b: estimation framework -----------------------------------------

func BenchmarkFig11b_PREPReplay(b *testing.B) {
	jobs := trace.Generate(trace.NGTianheConfig(5000)).Jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate.Evaluate(estimate.NewPREP(), jobs)
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
		ctl, err := controller.New(c, m, controller.Config{KillAtLimit: true})
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
