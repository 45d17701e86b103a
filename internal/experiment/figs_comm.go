package experiment

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/faults"
	"eslurm/internal/monitor"
	"eslurm/internal/predict"
	"eslurm/internal/rm"
)

// failSpread fails `count` compute nodes spread uniformly across the
// cluster and returns the failed set.
func failSpread(c *cluster.Cluster, count int) map[cluster.NodeID]bool {
	failed := make(map[cluster.NodeID]bool, count)
	comps := c.Computes()
	if count <= 0 || len(comps) == 0 {
		return failed
	}
	stride := len(comps) / count
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < count && i*stride < len(comps); i++ {
		id := comps[i*stride]
		c.Fail(id)
		failed[id] = true
	}
	return failed
}

// namedRM is one roster entry: the RM's table name and its constructor.
type namedRM struct {
	name string
	new  func(c *cluster.Cluster) rm.RM
}

// rmRoster returns the paper's six RMs in table order: the five
// centralized profiles, then ESlurm built by eslurm, so each driver keeps
// its own choice of ESlurm's failure predictor.
func rmRoster(eslurm func(c *cluster.Cluster) rm.RM) []namedRM {
	var out []namedRM
	for _, prof := range []rm.Profile{
		rm.SGEProfile(), rm.TorqueProfile(), rm.OpenPBSProfile(), rm.LSFProfile(), rm.SlurmProfile(),
	} {
		out = append(out, namedRM{prof.Name, centralized(prof)})
	}
	return append(out, namedRM{"ESlurm", eslurm})
}

// centralized builds the centralized RM with the given profile.
func centralized(prof rm.Profile) func(c *cluster.Cluster) rm.RM {
	return func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, prof) }
}

// plainESlurm is ESlurm with no failure predictor.
func plainESlurm(c *cluster.Cluster) rm.RM { return rm.NewESlurm(c) }

// oracleESlurm is ESlurm whose predictor knows the cluster's true
// failures, as the scheduling drivers run it.
func oracleESlurm(c *cluster.Cluster) rm.RM {
	return rm.NewESlurmWithPredictor(c, predict.Oracle{Cluster: c})
}

// Fig7f reproduces the job-occupation-time experiment: parallel jobs of
// different sizes with a fixed 10 s runtime loaded through each of the six
// RMs; occupation spans allocation, spawn, the run itself, and reclaim.
func Fig7f(env *Env, clusterNodes int, sizes []int) *Table {
	if len(sizes) == 0 {
		sizes = []int{64, 256, 1024, 2048, 4096}
	}
	t := &Table{
		ID:      "fig7f",
		Title:   fmt.Sprintf("Job occupation time vs job size (%d-node cluster, 10s jobs)", clusterNodes),
		Columns: append([]string{"RM"}, sizesHeader(sizes)...),
	}
	roster := rmRoster(plainESlurm)
	cells := sideBySide(env, len(roster)*len(sizes), func(i int, env *Env) string {
		m, size := roster[i/len(sizes)], sizes[i%len(sizes)]
		if size > clusterNodes {
			return "-"
		}
		return fmtDur(OccupationTime(env, m.new, clusterNodes, size))
	})
	for r, m := range roster {
		t.AddRow(append([]string{m.name}, cells[r*len(sizes):(r+1)*len(sizes)]...)...)
	}
	t.Note = "paper: SGE/Torque/OpenPBS explode past 1K nodes; ESlurm stays below 15s at every size"
	return t
}

func sizesHeader(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%d nodes", s)
	}
	return out
}

// OccupationTime measures one job's occupation (submit → resources fully
// released) of the given size on an otherwise idle cluster under the given
// RM: allocation+spawn (load), the fixed 10 s run, and reclaim (term).
func OccupationTime(env *Env, mk func(c *cluster.Cluster) rm.RM, clusterNodes, jobNodes int) time.Duration {
	load, term := OccupationProbe(env, mk, clusterNodes, jobNodes, 0)
	return load + 10*time.Second + term
}

// OccupationProbe measures the RM's job load and termination latencies for
// one job of the given size, with failedFrac of the cluster's nodes down
// (the production failure background). The scheduling drivers call it per
// job size to build their sched.Overhead lookups. It runs the cluster only
// until each answer arrives, with the paper's 10 s job between them; 30 min
// per answer is a guard, and a callback that has not fired by then panics,
// naming the RM and the sizes, rather than reporting a zero latency.
func OccupationProbe(env *Env, mk func(c *cluster.Cluster) rm.RM, clusterNodes, jobNodes int, failedFrac float64) (load, term time.Duration) {
	satellites := 1
	if clusterNodes >= 1024 {
		satellites = 2 + clusterNodes/5120 // paper: ~1 satellite per 5K slaves
	}
	c := env.NewCluster(42, cluster.Config{Computes: clusterNodes, Satellites: satellites})
	r := mk(c)
	r.Start()
	c.RunUntil(2 * time.Second)
	if failedFrac > 0 {
		// Fail nodes outside the probed job (a failed allocation would be
		// replaced by the scheduler); the broadcast still traverses them
		// in heartbeats but the job path sees a healthy allocation. For
		// tree structures the job's own relay nodes matter, so also fail
		// a proportional slice inside the job.
		failSpread(c, int(float64(jobNodes)*failedFrac))
	}
	nodes := c.Computes()[:jobNodes]
	var loaded, termed bool
	start := c.Engine.Now()
	r.LoadJob(nodes, func(d time.Duration) { load, loaded = d, true })
	if !c.RunUntilDone(start+30*time.Minute, func() bool { return loaded }) {
		panic(fmt.Sprintf("experiment: %s never answered LoadJob within 30m (%d-node cluster, %d-node job)", r.Name(), clusterNodes, jobNodes))
	}
	c.RunUntil(start + load + 10*time.Second)
	termStart := c.Engine.Now()
	r.TerminateJob(nodes, func(d time.Duration) { term, termed = d, true })
	if !c.RunUntilDone(termStart+30*time.Minute, func() bool { return termed }) {
		panic(fmt.Sprintf("experiment: %s never answered TerminateJob within 30m (%d-node cluster, %d-node job)", r.Name(), clusterNodes, jobNodes))
	}
	r.Stop()
	return load, term
}

// Fig8a reproduces the message-broadcast-time comparison for the job
// loading (message 1) and job termination (message 2) messages on a 4K
// cluster with a production-like 2% failure mix: Slurm's forwarding tree,
// ESlurm without FP-Tree (null predictor), and full ESlurm.
func Fig8a(env *Env, nodes int) *Table {
	t := &Table{
		ID:      "fig8a",
		Title:   fmt.Sprintf("Average broadcast time, %d nodes, 2%% failed", nodes),
		Columns: []string{"System", "job loading msg", "job termination msg"},
	}
	loadBytes, termBytes := 4096, 1024

	type variant struct {
		name string
		run  func(env *Env, size int) time.Duration
	}
	slurmTree := func(env *Env, size int) time.Duration {
		c := env.NewCluster(7, cluster.Config{Computes: nodes, Satellites: 1})
		failSpread(c, nodes/50)
		b := comm.NewBroadcaster(c)
		var res comm.Result
		comm.KTree{Width: 50}.Broadcast(b, c.Master().ID, c.Computes(), size, func(r comm.Result) { res = r })
		c.Run()
		return res.DeliveredElapsed
	}
	eslurm := func(fp bool) func(env *Env, size int) time.Duration {
		return func(env *Env, size int) time.Duration {
			sats := 2 + nodes/5120
			c := env.NewCluster(7, cluster.Config{Computes: nodes, Satellites: sats})
			failed := failSpread(c, nodes/50)
			cfg := core.DefaultConfig()
			var p predict.Predictor = predict.Null{}
			if fp {
				p = predict.Static(failed)
			}
			m := core.NewMaster(c, cfg, p)
			m.Start()
			c.RunUntil(2 * time.Second)
			var res comm.Result
			got := false
			m.Broadcast(c.Computes(), size, func(r comm.Result) { res, got = r, true })
			c.RunUntilDone(c.Engine.Now()+10*time.Minute, func() bool { return got })
			m.Stop()
			return res.DeliveredElapsed
		}
	}
	variants := []variant{
		{"Slurm (fanout tree)", slurmTree},
		{"ESlurm w/o FP-Tree", eslurm(false)},
		{"ESlurm", eslurm(true)},
	}
	sizes := []int{loadBytes, termBytes}
	times := sideBySide(env, len(variants)*len(sizes), func(i int, env *Env) time.Duration {
		return variants[i/len(sizes)].run(env, sizes[i%len(sizes)])
	})
	for i, v := range variants {
		t.AddRow(v.name, fmtDur(times[2*i]), fmtDur(times[2*i+1]))
	}
	t.Note = "paper: ESlurm cuts average broadcast time 63.7%/73.6% vs Slurm; FP-Tree alone contributes 36.3%/54.9%"
	return t
}

// Fig8b reproduces the communication-structure comparison under failures:
// broadcast time of ring, star, shared-memory, plain tree and FP-Tree
// structures at increasing failure ratios.
func Fig8b(env *Env, nodes int, ratios []float64) *Table {
	if len(ratios) == 0 {
		ratios = []float64{0, 0.05, 0.10, 0.20, 0.30}
	}
	cols := []string{"structure"}
	for _, r := range ratios {
		cols = append(cols, fmtPct(r)+" failed")
	}
	t := &Table{
		ID:      "fig8b",
		Title:   fmt.Sprintf("Broadcast time vs failure ratio (%d nodes, job loading msg)", nodes),
		Columns: cols,
	}

	run := func(env *Env, s comm.Structure, ratio float64) time.Duration {
		c := env.NewCluster(11, cluster.Config{Computes: nodes, Satellites: 1})
		failed := failSpread(c, int(float64(nodes)*ratio))
		if fp, ok := s.(comm.FPTree); ok {
			fp.Predictor = predict.Static(failed)
			s = fp
		}
		b := comm.NewBroadcaster(c)
		var res comm.Result
		s.Broadcast(b, c.Satellites()[0], c.Computes(), 4096, func(r comm.Result) { res = r })
		c.Run()
		return res.DeliveredElapsed
	}

	structures := []comm.Structure{
		comm.Ring{}, comm.Star{}, comm.SharedMem{}, comm.KTree{}, comm.FPTree{},
	}
	times := sideBySide(env, len(structures)*len(ratios), func(i int, env *Env) string {
		return fmtDur(run(env, structures[i/len(ratios)], ratios[i%len(ratios)]))
	})
	for i, s := range structures {
		t.AddRow(append([]string{s.Name()}, times[i*len(ratios):(i+1)*len(ratios)]...)...)
	}
	t.Note = "paper: ring/star/tree degrade sharply; shared-memory flat; FP-Tree minimal and below 10s even at 30%"
	return t
}

// Fig11a reproduces the satellite-count sweep: heartbeat-message broadcast
// time on the full-scale NG-Tianhe (20K+ nodes) for different numbers of
// satellite nodes.
func Fig11a(env *Env, nodes int, satCounts []int) *Table {
	if len(satCounts) == 0 {
		satCounts = []int{5, 10, 20, 30, 40, 50, 60}
	}
	t := &Table{
		ID:      "fig11a",
		Title:   fmt.Sprintf("Heartbeat broadcast time vs satellite count (%d nodes)", nodes),
		Columns: []string{"satellites", "broadcast time"},
	}
	times := sideBySide(env, len(satCounts), func(i int, env *Env) time.Duration {
		c := env.NewCluster(13, cluster.Config{Computes: nodes, Satellites: satCounts[i]})
		// Production failure background: ~1% down.
		failSpread(c, nodes/100)
		master := core.NewMaster(c, core.DefaultConfig(), predict.Oracle{Cluster: c})
		master.Start()
		c.RunUntil(2 * time.Second)
		var res comm.Result
		got := false
		master.Broadcast(c.Computes(), core.HeartbeatMsgBytes, func(r comm.Result) { res, got = r, true })
		c.RunUntilDone(c.Engine.Now()+10*time.Minute, func() bool { return got })
		master.Stop()
		return res.DeliveredElapsed
	})
	for i, m := range satCounts {
		t.AddRow(fmt.Sprintf("%d", m), fmtDur(times[i]))
	}
	t.Note = "paper: ~20 satellites optimal at 20K+ nodes (≈1 per 5K slaves)"
	return t
}

// Placement reproduces the FP-Tree node-placement statistics of §VII-A: a
// multi-day deployment with small failure events plus one large hardware-
// replacement event, an alert-driven predictor fed by the monitoring
// subsystem, and the fraction of actually-failed nodes that FP-Tree placed
// at leaves (paper: 81.7%).
func Placement(env *Env, nodes int, days int) *Table {
	if days <= 0 {
		days = 2
	}
	sats := 2
	c := env.NewCluster(17, cluster.Config{Computes: nodes, Satellites: sats})
	sub := monitor.New(c, monitor.Config{DetectionProb: 0.85, FalseAlertsPerNodeDay: 0.05})
	pred := predict.NewAlertDriven(c.Engine, sub, 45*time.Minute)

	cfg := core.DefaultConfig()
	cfg.HeartbeatInterval = 5 * time.Minute
	// Measure the monitoring pipeline alone, as the paper does: without
	// the master's own unreachable-node feedback, placement recall is
	// bounded by the alert detector.
	cfg.DisableSuspectFeedback = true
	m := core.NewMaster(c, cfg, pred)
	stats := &comm.PlacementStats{}
	m.Placement = stats
	m.Start()

	// Failure campaign mirroring the paper's deployment: a few single-node
	// failures per day plus one large hardware-replacement event on the
	// middle day. ~18% of failures are silent to monitoring (the fault
	// also severs the monitoring path), which bounds prediction recall.
	horizon := time.Duration(days) * 24 * time.Hour
	campaign := faults.New(c, sub, 0.18)
	campaign.Background(4, horizon, 2*time.Hour, 5*time.Hour)
	campaign.Burst(horizon/2, nodes/33, 6*time.Hour)

	c.RunUntil(horizon)
	m.Stop()
	// Drain in-flight broadcasts, whose placement stats still accrue; the
	// monitor's background noise process never terminates, so a full Run()
	// would spin forever.
	c.RunUntil(horizon + 30*time.Minute)

	t := &Table{
		ID:      "placement",
		Title:   fmt.Sprintf("FP-Tree leaf placement of failed nodes (%d nodes, %d days)", nodes, days),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("FP-Trees built", fmt.Sprintf("%d", stats.TreesBuilt))
	avg := 0
	if stats.TreesBuilt > 0 {
		avg = stats.NodesTotal / stats.TreesBuilt
	}
	t.AddRow("avg nodes per FP-Tree", fmt.Sprintf("%d", avg))
	t.AddRow("failure events injected", fmt.Sprintf("%d (%d silent)", len(campaign.Events), campaign.SilentCount()))
	t.AddRow("failed nodes encountered", fmt.Sprintf("%d", stats.FailedEncountered))
	t.AddRow("placed at leaves", fmt.Sprintf("%d", stats.FailedAtLeaves))
	t.AddRow("leaf placement ratio", fmtPct(stats.LeafPlacementRatio()))
	t.Note = "paper: 81.7% of failed nodes placed on leaves over a 10-day 4K-node deployment"
	return t
}
