package main

import (
	"fmt"
	"time"

	"eslurm/internal/chaos"
	"eslurm/internal/experiment"
)

// sizes fixes every input size of a pass. fullSizes is what the benchmark
// measures; toySizes exists so the smoke test can run every code path in
// seconds.
type sizes struct {
	eslurm, fig7f, estimate experiment.Params
	soak                    chaos.Config
	reconcile               chaos.ReconcileConfig
	probe                   probeSizes
}

func fullSizes() sizes {
	soak := chaos.DefaultConfig()
	soak.Seeds, soak.Computes = 24, 2048
	return sizes{
		eslurm: experiment.Params{
			Fig8Nodes: 4096,
			Fig9Nodes: 16384, Fig9Span: 10 * time.Minute,
			T56Nodes: 20480, T56Span: 10 * time.Minute, T56Sats: []int{10, 30, 50},
			Fig11aNodes: 20480,
		},
		fig7f:     experiment.Params{Fig7fNodes: 1024, Shards: 2},
		estimate:  experiment.Params{Table8Jobs: 500, Fig11bJobs: 2500},
		soak:      soak,
		reconcile: chaos.ReconcileConfig{Seeds: 24, Computes: 2048, Workers: 1},
		probe:     fullProbeSizes(),
	}
}

func toySizes() sizes {
	soak := chaos.DefaultConfig()
	soak.Seeds, soak.Computes = 2, 256
	return sizes{
		eslurm: experiment.Params{
			Fig8Nodes: 256,
			Fig9Nodes: 256, Fig9Span: 2 * time.Minute,
			T56Nodes: 256, T56Span: 2 * time.Minute, T56Sats: []int{2, 4},
			Fig11aNodes: 256,
		},
		fig7f:     experiment.Params{Fig7fNodes: 64, Shards: 2},
		estimate:  experiment.Params{Table8Jobs: 80, Fig11bJobs: 120},
		soak:      soak,
		reconcile: chaos.ReconcileConfig{Seeds: 2, Computes: 256, Workers: 1},
		probe:     toyProbeSizes(),
	}
}

// opResult is one checked operation: one experiment id or one soak seed
// of one iteration.
type opResult struct {
	ID string
	// Out is the op's rendered output; every iteration's must equal the
	// warm-up iteration's byte for byte.
	Out string
	// Err is the shape-check or invariant failure, "" when the op passed.
	Err    string
	Events uint64
}

// iteration is one run of a workload's fixed input.
type iteration struct {
	Wall time.Duration
	Ops  []opResult
	// Parts splits Wall by the per-layer share metric each part feeds.
	Parts map[string]time.Duration
	// Counters are the exact per-layer counts the iteration exposes.
	Counters map[string]float64
}

func (it *iteration) events() uint64 {
	var n uint64
	for _, op := range it.Ops {
		n += op.Events
	}
	return n
}

// workload is one fixed input. run executes a single iteration, recording
// a host-time span per op under parent when rec is non-nil.
type workload struct {
	name string
	run  func(sz sizes, seed int64, rec *recorder, parent int) iteration
}

// workloads lists the benchmark's workloads; BENCHMARK.json gives each
// one's reason, README.md the long form.
var workloads = []workload{
	{
		name: "eslurm_scale",
		run: func(sz sizes, _ int64, rec *recorder, parent int) iteration {
			return runRegistry([]string{"fig8a", "fig8b", "fig9", "table5", "fig11a"}, sz.eslurm, rec, parent)
		},
	},
	{
		name: "fig7f_sharded",
		run: func(sz sizes, _ int64, rec *recorder, parent int) iteration {
			return runRegistry([]string{"fig7f"}, sz.fig7f, rec, parent)
		},
	},
	{
		name: "estimate_replay",
		run: func(sz sizes, _ int64, rec *recorder, parent int) iteration {
			return runRegistry([]string{"table8", "fig11b"}, sz.estimate, rec, parent)
		},
	},
	{
		name: "chaos_soak",
		run:  runChaos,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runRegistry runs the registry experiments one after another on one
// worker, each as its own op. The experiments' engines and traces are
// seeded internally, so the benchmark seed does not reach them.
func runRegistry(ids []string, p experiment.Params, rec *recorder, parent int) iteration {
	it := iteration{Parts: map[string]time.Duration{}}
	start := time.Now()
	for _, id := range ids {
		spec, ok := experiment.Lookup(id)
		if !ok {
			panic("bench: experiment " + id + " is not in the registry")
		}
		sp := rec.start("experiment."+id, parent)
		r := experiment.RunConcurrent([]experiment.Spec{spec}, p, 1, nil)[0]
		rec.end(sp)
		it.Ops = append(it.Ops, checkedOp(id, r.Tables, r.Events))
		it.Parts["experiment."+id+".wall_share"] = r.Wall
	}
	it.Wall = time.Since(start)
	return it
}

// checkedOp renders an experiment's tables and applies its shape check.
func checkedOp(id string, tables []*experiment.Table, events uint64) opResult {
	op := opResult{ID: id, Out: render(tables), Events: events}
	if err := checkers[id](tables); err != nil {
		op.Err = err.Error()
	}
	return op
}

// runChaos runs the chaos soak and then the reconcile soak over the same
// seeds, BaseSeed = 1000*seed+1. Every soak seed is an op.
func runChaos(sz sizes, seed int64, rec *recorder, parent int) iteration {
	it := iteration{Parts: map[string]time.Duration{}, Counters: map[string]float64{}}
	start := time.Now()

	cfg := sz.soak
	cfg.BaseSeed = 1000*seed + 1
	sp := rec.start("chaos.Soak", parent)
	rep := chaos.Soak(cfg)
	rec.end(sp)
	soakWall := time.Since(start)

	rcfg := sz.reconcile
	rcfg.BaseSeed = cfg.BaseSeed
	sp = rec.start("chaos.ReconcileSoak", parent)
	rr := chaos.ReconcileSoak(rcfg)
	rec.end(sp)
	it.Wall = time.Since(start)
	it.Parts["chaos.soak_wall_share"] = soakWall
	it.Parts["chaos.reconcile_wall_share"] = it.Wall - soakWall

	var messages float64
	c := it.Counters
	for _, s := range rep.Seeds {
		op := opResult{ID: fmt.Sprintf("soak/%d", s.Seed), Events: s.Events}
		if len(s.Violations) > 0 {
			op.Err = s.Violations[0]
		}
		c["chaos.retries"] += float64(s.Retries)
		c["chaos.reallocations"] += float64(s.Reallocations)
		c["chaos.takeovers"] += float64(s.Takeovers)
		c["chaos.violations"] += float64(len(s.Violations))
		c["comm.retry_share"] += float64(s.Retries)
		messages += float64(s.Metrics.Counter("comm.messages").Value())
		// The tracer and registry are per-run objects; everything else is
		// the seed's deterministic report.
		s.Trace, s.Metrics, s.CellTraces = nil, nil, nil
		op.Out = fmt.Sprintf("%+v", s)
		it.Ops = append(it.Ops, op)
	}
	if messages > 0 {
		c["comm.retry_share"] /= messages
	}
	for _, s := range rr.Seeds {
		op := opResult{ID: fmt.Sprintf("reconcile/%d", s.Seed), Out: fmt.Sprintf("%+v", s), Events: s.Events}
		switch {
		case len(s.Violations) > 0:
			op.Err = s.Violations[0]
		case !s.Converged:
			op.Err = fmt.Sprintf("reconcile seed %d did not converge", s.Seed)
		}
		c["chaos.retries"] += float64(s.Retries)
		c["chaos.reallocations"] += float64(s.Reallocations)
		c["chaos.takeovers"] += float64(s.MasterTakeovers)
		c["chaos.violations"] += float64(len(s.Violations))
		c["reconcile.rounds"] += float64(s.Rounds)
		c["reconcile.actions"] += float64(s.Promotes + s.Drains)
		it.Ops = append(it.Ops, op)
	}
	return it
}
