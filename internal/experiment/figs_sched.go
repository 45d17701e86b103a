package experiment

import (
	"fmt"
	"sort"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/estimate"
	"eslurm/internal/rm"
	"eslurm/internal/sched"
	"eslurm/internal/trace"
)

// probeFailedFrac is the production failure background every
// scheduling lookup probes under (see OccupationProbe's failedFrac).
const probeFailedFrac = 0.01

// OccupationProbeLookup builds a sched.Overhead for the RM mk builds at a
// given cluster scale from a handful of occupation probes under the 1%
// failure background, interpolating linearly between probed sizes. It
// couples the communication model to the scheduler for fig10, the
// ablation and the eslurmctl CLI.
func OccupationProbeLookup(env *Env, mk func(c *cluster.Cluster) rm.RM, clusterNodes int) sched.Overhead {
	var sizes []int
	for _, s := range []int{16, 64, 256, 1024, 4096, 16384} {
		if s < clusterNodes {
			sizes = append(sizes, s)
		}
	}
	sizes = append(sizes, clusterNodes)
	loads := make([]time.Duration, len(sizes))
	terms := make([]time.Duration, len(sizes))
	for i, s := range sizes {
		loads[i], terms[i] = OccupationProbe(env, mk, clusterNodes, s, probeFailedFrac)
	}
	return func(n int) (time.Duration, time.Duration) {
		if n <= sizes[0] {
			return loads[0], terms[0]
		}
		i := sort.SearchInts(sizes, n)
		if i >= len(sizes) {
			return loads[len(sizes)-1], terms[len(sizes)-1]
		}
		if sizes[i] == n || i == 0 {
			return loads[i], terms[i]
		}
		// Linear interpolation between the bracketing probes.
		f := float64(n-sizes[i-1]) / float64(sizes[i]-sizes[i-1])
		lerp := func(a, b time.Duration) time.Duration {
			return a + time.Duration(f*float64(b-a))
		}
		return lerp(loads[i-1], loads[i]), lerp(terms[i-1], terms[i])
	}
}

// withPenalty adds the named RM's request-response degradation at the
// given scale to every load of base. A centralized master's grows
// superlinearly once it saturates (§II-B: >27 s average response with
// 38% of requests failing to connect at 20K+ nodes under Slurm); ESlurm's
// production response time stays below 1 s at the same scale.
func withPenalty(base sched.Overhead, name string, nodes int) sched.Overhead {
	p := 500 * time.Millisecond
	if name != "ESlurm" {
		f := float64(nodes) / 20480.0
		p = time.Duration(27 * f * f * float64(time.Second))
	}
	return func(n int) (time.Duration, time.Duration) {
		l, t := base(n)
		return l + p, t
	}
}

// replay runs jobs under EASY backfill on a scale-node cluster with the
// given overhead, over one week's utilization window. framework swaps the
// users' walltimes for the estimation framework's, whose model fits env
// counts; a positive crashMTBF takes the master down that often.
func replay(env *Env, jobs []trace.Job, scale int, overhead sched.Overhead, framework bool, crashMTBF time.Duration) sched.Result {
	cfg := sched.Config{
		Nodes: scale, Policy: sched.Backfill, Overhead: overhead,
		KillAtLimit: true, UtilWindow: 7 * 24 * time.Hour, Seed: int64(scale),
		CrashMTBF: crashMTBF, OnEngine: env.Adopt,
	}
	if !framework {
		return sched.Run(jobs, cfg)
	}
	f := estimate.NewFramework(estimate.FrameworkConfig{K: workloadK})
	cfg.Predictor = sched.FrameworkWalltimes{F: f}
	res := sched.Run(jobs, cfg)
	env.countFits(f.Work())
	return res
}

// Fig10 reproduces the cluster-scale scheduling comparison of Fig. 10 /
// Table VII: system utilization, average waiting time and average bounded
// slowdown for the RMs deployable at each scale, replaying a synthetic
// one-week-like trace (jobsPerScale jobs) under EASY backfill.
func Fig10(env *Env, scales []int, jobsPerScale int) []*Table {
	util := &Table{ID: "fig10a", Title: "System utilization (higher is better)"}
	wait := &Table{ID: "fig10b", Title: "Average job waiting time (lower is better)"}
	slow := &Table{ID: "fig10c", Title: "Average bounded slowdown (lower is better)"}
	cols := []string{"RM"}
	for _, s := range scales {
		cols = append(cols, fmt.Sprintf("%d nodes", s))
	}
	util.Columns, wait.Columns, slow.Columns = cols, cols, cols

	// Table VII: SGE and Torque cannot scale past 1,024 nodes; OpenPBS
	// and LSF stop at 4,096. Slurm and ESlurm run at every scale.
	maxScale := map[string]int{"SGE": 1024, "Torque": 1024, "OpenPBS": 4096, "LSF": 4096}

	// One row per roster × scale cell, in the serial loop's order; a
	// capped cell builds nothing and prints "-" in all three tables.
	roster := rmRoster(OracleESlurm)
	cells := sideBySide(env, len(roster)*len(scales), func(i int, env *Env) [3]string {
		ct, scale := roster[i/len(scales)], scales[i%len(scales)]
		if limit, capped := maxScale[ct.name]; capped && scale > limit {
			return [3]string{"-", "-", "-"}
		}
		res := runFig10Cell(env, ct.name, ct.new, scale, jobsPerScale)
		return [3]string{fmtPct(res.Utilization), fmtDur(res.AvgWait), fmt.Sprintf("%.1f", res.AvgBoundedSlowdown)}
	})
	for r, ct := range roster {
		uRow := []string{ct.name}
		wRow := []string{ct.name}
		sRow := []string{ct.name}
		for _, c := range cells[r*len(scales) : (r+1)*len(scales)] {
			uRow = append(uRow, c[0])
			wRow = append(wRow, c[1])
			sRow = append(sRow, c[2])
		}
		util.AddRow(uRow...)
		wait.AddRow(wRow...)
		slow.AddRow(sRow...)
	}
	note := "paper (full-scale NG-Tianhe): ESlurm +47.2% utilization vs Slurm, -60.5% wait, -75.8% slowdown; utilization falls with scale for all RMs"
	util.Note, wait.Note, slow.Note = note, note, note
	return []*Table{util, wait, slow}
}

// scaleTrace builds the replay workload for one cluster scale, following
// Table VII's load sources (Tianhe-2A history below 20K nodes, NG-Tianhe
// at 20K+). The job count is calibrated in a first pass so total demand
// is ~105% of the cluster's node-hours over the week — the same offered
// load at every scale, as replaying "the historical load on the real
// cluster during a week" gives the paper.
func scaleTrace(scale, jobs int) []trace.Job {
	mk := func(n int) trace.GenConfig {
		var cfg trace.GenConfig
		if scale >= 20000 {
			cfg = trace.NGTianheConfig(n)
		} else {
			cfg = trace.Tianhe2AConfig(n)
		}
		cfg.MaxNodes = scale
		cfg.Days = 7
		return cfg
	}
	probe := trace.Generate(mk(jobs))
	demand := 0.0
	for i := range probe.Jobs {
		j := &probe.Jobs[i]
		demand += float64(j.Nodes) * j.Runtime.Hours()
	}
	capacity := float64(scale) * 7 * 24
	if demand <= 0 {
		return probe.Jobs
	}
	calibrated := int(float64(jobs) * 1.05 * capacity / demand)
	if calibrated < 500 {
		calibrated = 500
	}
	if calibrated > 60000 {
		calibrated = 60000
	}
	return trace.Generate(mk(calibrated)).Jobs
}

func runFig10Cell(env *Env, name string, mk func(c *cluster.Cluster) rm.RM, scale, jobs int) sched.Result {
	overhead := withPenalty(OccupationProbeLookup(env, mk, scale), name, scale)
	var crash time.Duration
	if name != "ESlurm" && scale >= 16384 {
		// §II-B: the production centralized master crashed every ~42 h at
		// 20K+ nodes, with ~90 min reboots (sched's fixed downtime).
		crash = time.Duration(float64(42*time.Hour) * 20480.0 / float64(scale))
	}
	return replay(env, scaleTrace(scale, jobs), scale, overhead, name == "ESlurm", crash)
}

// Ablation reproduces the §VII-D contribution analysis at full NG-Tianhe
// scale: full ESlurm vs ESlurm without the runtime-estimation framework
// (user walltimes) vs ESlurm without FP-Tree (plain-tree relays under the
// production failure background), plus the Slurm reference.
func Ablation(env *Env, scale, jobs int) *Table {
	t := &Table{
		ID:      "ablation",
		Title:   fmt.Sprintf("ESlurm component contributions at %d nodes", scale),
		Columns: []string{"configuration", "utilization", "avg wait", "slowdown"},
	}
	jobsList := scaleTrace(scale, jobs)

	// Two stages, each side by side: the three occupation-probe sweeps,
	// then the four replays that read them, so the engine records keep
	// the serial order. Without FP-Tree, prediction is disabled, so the
	// satellite relays pay timeouts on failed interior nodes.
	probed := []func(c *cluster.Cluster) rm.RM{OracleESlurm, plainESlurm, centralized(rm.SlurmProfile())}
	overheads := sideBySide(env, len(probed), func(i int, env *Env) sched.Overhead {
		return OccupationProbeLookup(env, probed[i], scale)
	})
	esOverhead, noFPOverhead, slurmOverhead := overheads[0], overheads[1], overheads[2]

	replays := []struct {
		name      string
		overhead  sched.Overhead
		framework bool
		crashMTBF time.Duration
	}{
		{"ESlurm (full)", withPenalty(esOverhead, "ESlurm", scale), true, 0},
		{"ESlurm w/o estimator", withPenalty(esOverhead, "ESlurm", scale), false, 0},
		{"ESlurm w/o FP-Tree", withPenalty(noFPOverhead, "ESlurm", scale), true, 0},
		{"Slurm", withPenalty(slurmOverhead, "Slurm", scale), false, 42 * time.Hour},
	}
	rows := sideBySide(env, len(replays), func(i int, env *Env) []string {
		rp := replays[i]
		r := replay(env, jobsList, scale, rp.overhead, rp.framework, rp.crashMTBF)
		return []string{rp.name, fmtPct(r.Utilization), fmtDur(r.AvgWait), fmt.Sprintf("%.1f", r.AvgBoundedSlowdown)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note = "paper: estimator contributes 8.7 utilization points, FP-Tree 6.2, vs a 47.2-point total gap to Slurm"
	return t
}
