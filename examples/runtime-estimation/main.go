// Runtime-estimation: a guided tour of the Section V framework — model
// generations, clustering, the AEA gate, the slack variable — plus a
// live comparison against the published baselines on an NG-Tianhe-like
// trace (Fig. 11b in miniature).
package main

import (
	"fmt"
	"time"

	"eslurm/internal/estimate"
	"eslurm/internal/trace"
)

func main() {
	tr := trace.Generate(trace.NGTianheConfig(6000))
	fmt.Printf("trace: %d jobs from %s over %v\n\n",
		len(tr.Jobs), tr.System, tr.Duration().Round(time.Hour))

	// 1. Watch the framework's lifecycle on a prefix of the trace.
	f := estimate.NewFramework(estimate.FrameworkConfig{}) // paper defaults:
	// interest window 700 jobs, refresh 15h, K=15, alpha=1.05, AEA gate 90%
	cfg := f.Config()
	fmt.Printf("framework config: window=%d refresh=%v K=%d alpha=%.2f gate=%.0f%%\n",
		cfg.InterestWindow, cfg.RefreshEvery, cfg.K, cfg.Alpha, 100*cfg.AEAGate)

	warm := tr.Jobs[:2000]
	for i := range warm {
		f.Predict(&warm[i])  // real-time estimation module (may refresh the model)
		f.Complete(&warm[i]) // record module: EA per Eq. 4, AEA per Eq. 5
	}
	fmt.Printf("after 2,000 jobs: %d model generations built\n\n", f.Generations)

	// 2. A single prediction, dissected.
	j := tr.Jobs[2100]
	p := f.Predict(&j)
	fmt.Printf("job %q by %s (%d nodes), user asked %v, actually runs %v\n",
		j.Name, j.User, j.Nodes, j.UserEstimate, j.Runtime.Round(time.Second))
	fmt.Printf("  matched cluster %d; model estimate (x%.2f slack) = %v\n",
		p.Cluster, cfg.Alpha, p.Model.Round(time.Second))
	if p.UsedModel {
		fmt.Printf("  cluster AEA passed the %.0f%% gate: scheduler plans with the model\n", 100*cfg.AEAGate)
	} else {
		fmt.Printf("  cluster AEA below the gate: scheduler keeps the user estimate\n")
	}
	fmt.Printf("  estimation accuracy EA (Eq. 4) vs truth: %.3f\n\n", estimate.EA(p.Model, j.Runtime))

	// 3. Fig. 11b in miniature: replay the full trace through the
	// comparison's estimators, side by side (each replay owns its models
	// and seeds). K follows the paper's elbow methodology per workload:
	// their trace gave 15, this synthetic one ~40 (see EXPERIMENTS.md).
	fmt.Printf("%-14s %-8s %-8s %s\n", "estimator", "AEA", "UR", "coverage")
	results, _ := estimate.EvaluateAll(estimate.Fig11bRoster(40), tr.Jobs)
	for _, res := range results {
		fmt.Printf("%-14s %-8.3f %-8.3f %.3f\n",
			res.Estimator, res.AEA, res.UnderestimateRate, res.Coverage)
	}
	fmt.Println("\n(AEA: average estimation accuracy, Eq. 5 — higher is better;")
	fmt.Println(" UR: underestimation rate — lower avoids walltime kills;")
	fmt.Println(" coverage: fraction of jobs the estimator would act on.)")
}
