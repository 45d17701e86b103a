package experiment

import (
	"fmt"
	"math/rand"

	"eslurm/internal/estimate"
	"eslurm/internal/trace"
)

// workloadK is the cluster count the experiments give the framework on
// the synthetic traces. It is a fixed choice, not an elbow result: the
// elbow method (mlkit.ChooseKElbow, Section V-A, which gave the paper
// K=15) picks 3–5 clusters on Tianhe-2A windows and 11–17 on NG-Tianhe
// ones (EXPERIMENTS.md).
const workloadK = 40

// Fig5 reproduces the trace-locality analysis of Fig. 5 on synthetic
// Tianhe-2A and NG-Tianhe traces: (a) the CDF of the user runtime-
// estimation accuracy P = t_s/t_r, (b) the job-correlation ratio vs the
// submission interval, (c) the job-correlation ratio vs the job-ID gap.
func Fig5(jobsPerTrace int) []*Table {
	cfgA, cfgB := trace.Tianhe2AConfig(jobsPerTrace), trace.NGTianheConfig(jobsPerTrace)
	traces := []*trace.Trace{
		trace.Generate(cfgA),
		trace.Generate(cfgB),
	}

	cdf := &Table{
		ID:      "fig5a",
		Title:   "CDF of user runtime-estimation accuracy P = t_s/t_r (P>1 overestimates)",
		Columns: []string{"P <=", traces[0].System, traces[1].System},
	}
	ths := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2, 3, 4, 6, 8, 12, 16}
	curves := make([][]float64, len(traces))
	for i, tr := range traces {
		curves[i] = tr.PCDF(ths)
	}
	for k, th := range ths {
		cdf.AddRow(fmt.Sprintf("%.2f", th), fmtF(curves[0][k]), fmtF(curves[1][k]))
	}
	cdf.Note = fmt.Sprintf("overestimated fraction: %s %s / %s %s (paper: 80-90%%)",
		traces[0].System, fmtPct(traces[0].OverestimateFraction()),
		traces[1].System, fmtPct(traces[1].OverestimateFraction()))

	interval := &Table{
		ID:      "fig5b",
		Title:   "Job-correlation ratio vs submission interval (hours)",
		Columns: []string{"interval(h)", traces[0].System, traces[1].System},
	}
	// Correlation sampling is seeded from the trace configs so the whole
	// figure is reproducible from (and only from) the workload seeds.
	rng := rand.New(rand.NewSource(cfgA.Seed ^ cfgB.Seed))
	const maxH = 40
	ptsA := traces[0].CorrelationVsInterval(maxH, 3000, rng)
	ptsB := traces[1].CorrelationVsInterval(maxH, 3000, rng)
	for h := 0; h < maxH; h += 2 {
		interval.AddRow(fmt.Sprintf("%d", h), fmtF(ptsA[h].Ratio), fmtF(ptsB[h].Ratio))
	}
	interval.Note = "paper: Tianhe-2A stabilizes ~0.3 past 30h, NG-Tianhe decays to ~0"

	gap := &Table{
		ID:      "fig5c",
		Title:   "Job-correlation ratio vs job-ID gap",
		Columns: []string{"ID gap", traces[0].System, traces[1].System},
	}
	gA := traces[0].CorrelationVsIDGap(1400, 100, 3000, rng)
	gB := traces[1].CorrelationVsIDGap(1400, 100, 3000, rng)
	for i := range gA {
		gap.AddRow(fmt.Sprintf("%.0f", gA[i].X), fmtF(gA[i].Ratio), fmtF(gB[i].Ratio))
	}
	gap.Note = "paper: decays with the gap, stabilizing ~0.08 past gap 700"

	return []*Table{cdf, interval, gap}
}

// countFits adds an estimator replay's model fits to the experiment's.
func (env *Env) countFits(w estimate.Work) {
	env.fits += w.Fits
	env.svrSweeps += w.SVRSweeps
	env.tobitSteps += w.TobitSteps
}

// Fig11b reproduces the runtime-estimator comparison: AEA and
// underestimation rate for the user estimates, SVM, RandomForest, Last-2,
// IRPA, TRIP, PREP and the ESlurm framework, replayed over an NG-Tianhe
// trace ("historical workloads on the NG-Tianhe").
func Fig11b(env *Env, jobs int) *Table {
	tr := trace.Generate(trace.NGTianheConfig(jobs))
	t := &Table{
		ID:      "fig11b",
		Title:   "Runtime-estimator comparison on NG-Tianhe trace",
		Columns: []string{"Estimator", "AEA", "UnderestimateRate", "Coverage"},
	}
	// K is the experiments' fixed workloadK, not an elbow result.
	results, work := estimate.EvaluateAll(estimate.Fig11bRoster(workloadK), tr.Jobs)
	env.countFits(work)
	for _, res := range results {
		t.AddRow(res.Estimator, fmtF(res.AEA), fmtF(res.UnderestimateRate), fmtF(res.Coverage))
	}
	t.Note = "paper: ESlurm best at AEA 0.84 / UR ~0.10; SVM, RF, Last-2 below 0.70 AEA with UR > 0.25"
	return t
}

// Table8 reproduces the slack-variable sweep of Table VIII: AEA and UR of
// the ESlurm framework for α in 1.00..1.08, from one replay whose model
// generations all nine record modules share.
func Table8(env *Env, jobs int) *Table {
	tr := trace.Generate(trace.NGTianheConfig(jobs))
	t := &Table{
		ID:      "table8",
		Title:   "Impact of the slack variable α (Eq. 3)",
		Columns: []string{"alpha", "AEA", "UR"},
	}
	alphas := []float64{1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08}
	results, work := estimate.EvaluateSlacks(estimate.FrameworkConfig{K: workloadK}, alphas, tr.Jobs)
	env.countFits(work)
	for i, res := range results {
		t.AddRow(fmt.Sprintf("%.2f", alphas[i]), fmtF(res.AEA), fmtF(res.UnderestimateRate))
	}
	t.Note = "paper: AEA 0.87→0.80 and UR 0.54→0.11 as α grows; 1.05 chosen as the knee"
	return t
}
