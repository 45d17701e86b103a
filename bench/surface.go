package main

import (
	"eslurm/internal/chaos"
	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/experiment"
	"eslurm/internal/fptree"
	"eslurm/internal/mlkit"
	"eslurm/internal/obs"
	"eslurm/internal/obs/critpath"
	"eslurm/internal/predict"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/trace"
)

// The binding surface: every internal/ symbol the benchmark calls or
// reads, in one place. A change that renames or removes one of them
// breaks `go -C bench build` here, on a line that says what the benchmark
// needed it for, and must keep an equivalent reachable: the benchmark may
// not be edited by the change it referees.
//
// Deliberately absent, because ROADMAP marks them for deletion:
// simnet.CountEvents, simnet.CollectEngines, ShardGroup.Send and every
// Sharded* twin. The shard kernel is reached only through Params.Shards.
var (
	// The workloads: registry experiments sized by Params, run on one worker.
	_ = experiment.Lookup
	_ = experiment.RunConcurrent
	_ = experiment.Params{
		Fig7fNodes: 0, Shards: 0,
		Fig8Nodes: 0, Fig9Nodes: 0, Fig9Span: 0, T56Nodes: 0, T56Span: 0, T56Sats: nil, Fig11aNodes: 0,
		Table8Jobs: 0, Fig11bJobs: 0,
	}
	_ = experiment.Result{Tables: nil, Wall: 0, Events: 0}
	_ = experiment.Table{ID: "", Columns: nil, Rows: nil}
	_ = (*experiment.Table).Fprint

	// The workloads: chaos and reconcile soaks, one op per seed.
	_ = chaos.DefaultConfig
	_ = chaos.Soak
	_ = chaos.RunSeed
	_ = chaos.Config{Seeds: 0, BaseSeed: 0, Computes: 0, Trace: false}
	_ = chaos.Report{Config: chaos.Config{}, Seeds: nil}
	_ = (*chaos.Report).CritpathReport
	_ = chaos.SeedResult{
		Seed: 0, Events: 0, Retries: 0, Reallocations: 0, Takeovers: 0, Violations: nil,
		Trace: nil, Metrics: nil, CellTraces: nil,
	}
	_ = chaos.ReconcileSoak
	_ = chaos.ReconcileConfig{Seeds: 0, BaseSeed: 0, Computes: 0, Workers: 0}
	_ = chaos.ReconcileReport{Seeds: nil}
	_ = chaos.ReconcileSeedResult{
		Seed: 0, Events: 0, Retries: 0, Reallocations: 0, MasterTakeovers: 0,
		Rounds: 0, Promotes: 0, Drains: 0, Converged: false, Violations: nil,
	}

	// Probes: kernel and wire.
	_ = simnet.NewEngine
	_ = (*simnet.Engine).After
	_ = (*simnet.Engine).Run
	_ = (*simnet.Engine).RunUntil
	_ = (*simnet.Engine).Now
	_ = (*simnet.Engine).Processed
	_ = (*simnet.Engine).Metrics
	_ = cluster.New
	_ = cluster.Config{Computes: 0, Satellites: 0}
	_ = cluster.Cluster{Net: nil}
	_ = (*cluster.Cluster).Computes
	_ = (*cluster.Cluster).Satellites
	_ = (*cluster.Cluster).Fail
	_ = (*cluster.Network).Send

	// Probes: broadcast structures, the FP-Tree, the master.
	_ = comm.NewBroadcaster
	_ = comm.Structure.Broadcast
	_ = []comm.Structure{comm.Star{}, comm.KTree{}, comm.FPTree{Predictor: predict.Static{}}}
	_ = comm.Result{Delivered: 0, Unreachable: nil}
	_ = fptree.Rearrange[int]
	_ = fptree.Build[int]
	_ = (*fptree.Tree[int]).Size
	_ = fptree.DefaultWidth
	_ = core.NewMaster
	_ = core.DefaultConfig
	_ = (*core.Master).Start
	_ = (*core.Master).Stop
	_ = (*core.Master).Broadcast
	_ = (*core.Master).Stats
	_ = core.Stats{SubTasks: 0}

	// Probes: trace generation, backfill replay, estimators, model fits.
	_                    = trace.Generate
	_                    = trace.Tianhe2AConfig
	_                    = trace.NGTianheConfig
	_                    = trace.GenConfig{Seed: 0}
	_                    = trace.Trace{Jobs: nil}
	_                    = (*trace.Trace).Validate
	_                    = trace.Job{Submit: 0}
	_                    = sched.Run
	_                    = sched.Config{Nodes: 0, Policy: sched.Backfill, Predictor: sched.FrameworkWalltimes{F: nil}}
	_                    = sched.Result{Completed: 0}
	_                    = estimate.Evaluate
	_                    = estimate.EvalResult{Jobs: 0, Coverage: 0}
	_                    = estimate.NewFramework
	_                    = estimate.FrameworkConfig{}
	_                    = estimate.NewIRPA
	_                    = estimate.NewSVM
	_                    = estimate.NewRandomForest
	_ estimate.Estimator = (*estimate.Framework)(nil)
	_                    = (*estimate.Framework).SetObs
	_                    = (*estimate.Framework).Predict
	_                    = mlkit.SVRFit
	_                    = mlkit.SVRConfig{}
	_                    = (*mlkit.SVR).Iterations
	_                    = (*mlkit.SVR).Predict
	_                    = mlkit.KMeansFit
	_                    = (*mlkit.KMeans).K
	_                    = mlkit.ForestFit
	_                    = mlkit.ForestConfig{}
	_                    = (*mlkit.Forest).Predict
	_                    = mlkit.TobitFit
	_                    = mlkit.TobitConfig{}
	_                    = (*mlkit.Tobit).Predict
	_                    = mlkit.BayesianRidgeFit
	_                    = (*mlkit.BayesianRidge).Predict

	// Counters read by name from an obs.Registry, and the span analysis.
	_                = obs.NewRegistry
	_                = (*obs.Registry).Counter
	_                = (*obs.Counter).Value
	_                = (*obs.Tracer).Len
	_                = critpath.Report{Groups: nil}
	registryCounters = []string{"comm.messages", "estimate.generations", "estimate.model_used", "estimate.predictions"}
)
