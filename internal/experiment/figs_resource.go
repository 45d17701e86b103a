package experiment

import (
	"fmt"
	"math"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/rm"
)

// resourceRun drives one RM on a fresh cluster for `span` of virtual time
// under a light production-like job flow (a job every ~100 s, lognormal
// sizes, short runtimes) and returns the master meter plus the cluster for
// satellite inspection.
func resourceRun(env *Env, mk func(c *cluster.Cluster) rm.RM, nodes, satellites int, span time.Duration, seed int64) (*cluster.ResourceMeter, *cluster.Cluster, rm.RM) {
	c := env.NewCluster(seed, cluster.Config{Computes: nodes, Satellites: satellites})
	e := c.Engine
	r := mk(c)
	r.Start()

	rng := e.Rand("experiment/jobs")
	var submit func()
	active := 0
	submit = func() {
		gap := time.Duration(30+rng.ExpFloat64()*70) * time.Second
		e.After(gap, func() {
			if e.Now() > span {
				return
			}
			size := int(math.Exp(rng.NormFloat64()*1.2+4.2)) + 1 // lognormal ~64 median
			if size > nodes/2 {
				size = nodes / 2
			}
			jobNodes := c.Computes()[:size]
			active++
			r.LoadJob(jobNodes, func(time.Duration) {
				runFor := time.Duration(10+rng.ExpFloat64()*110) * time.Second
				e.After(runFor, func() {
					r.TerminateJob(jobNodes, func(time.Duration) { active-- })
				})
			})
			submit()
		})
	}
	submit()

	c.RunUntil(span)
	r.Stop()
	// Drain remaining activity so meters settle.
	c.RunUntil(span + 30*time.Minute)
	return r.Meter(), c, r
}

// Fig7 reproduces the master-node resource comparison of Fig. 7a–e: six
// RMs managing the same cluster for `span` virtual time under the same job
// flow. The paper runs 24 h at 4,096 nodes; span is a knob so the default
// benchrunner invocation stays fast.
func Fig7(env *Env, nodes int, span time.Duration) *Table {
	if span == 0 {
		span = 2 * time.Hour
	}
	t := &Table{
		ID:    "fig7",
		Title: fmt.Sprintf("Master-node resource usage, %d nodes, %s run (Fig. 7a-e)", nodes, span),
		Columns: []string{"RM", "CPU time", "CPU util", "vmem", "rss",
			"avg sockets", "peak sockets"},
	}
	type mk struct {
		name       string
		satellites int
		new        func(c *cluster.Cluster) rm.RM
	}
	mks := []mk{
		{"SGE", 0, func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, rm.SGEProfile()) }},
		{"Torque", 0, func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, rm.TorqueProfile()) }},
		{"OpenPBS", 0, func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, rm.OpenPBSProfile()) }},
		{"LSF", 0, func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, rm.LSFProfile()) }},
		{"Slurm", 0, func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, rm.SlurmProfile()) }},
		{"ESlurm", 2, func(c *cluster.Cluster) rm.RM { return rm.NewESlurm(c) }},
	}
	for i, m := range mks {
		meter, _, _ := resourceRun(env, m.new, nodes, m.satellites, span, int64(100+i))
		util := meter.CPUTime().Seconds() / span.Seconds()
		t.AddRow(m.name, fmtDur(meter.CPUTime()), fmtPct(util),
			fmtBytes(meter.VMem()), fmtBytes(meter.RSS()),
			fmt.Sprintf("%.1f", meter.AvgSockets()), fmt.Sprintf("%d", meter.PeakSockets()))
	}
	t.Note = "paper (24h, 4K nodes): ESlurm lowest CPU/rss/sockets; Slurm ~10GB vmem; SGE/OpenPBS hold node-count socket pools; ESlurm <100 sockets, <2GB vmem, ~60MB rss"
	return t
}

// Fig9 reproduces the full-scale Tianhe-2A comparison (16,384 nodes):
// Slurm vs ESlurm (two satellite nodes) master usage, plus the two
// satellites' own usage (Fig. 9d–f).
func Fig9(env *Env, nodes int, span time.Duration) []*Table {
	if span == 0 {
		span = 2 * time.Hour
	}
	master := &Table{
		ID:    "fig9",
		Title: fmt.Sprintf("Master usage at %d nodes, %s run (Fig. 9a-c)", nodes, span),
		Columns: []string{"RM", "CPU time", "vmem", "rss",
			"avg sockets", "peak sockets"},
	}

	slurmMeter, _, _ := resourceRun(env, func(c *cluster.Cluster) rm.RM {
		return rm.NewCentralized(c, rm.SlurmProfile())
	}, nodes, 0, span, 200)
	esMeter, esCluster, _ := resourceRun(env, func(c *cluster.Cluster) rm.RM {
		return rm.NewESlurm(c)
	}, nodes, 2, span, 201)

	for _, row := range []struct {
		name string
		m    *cluster.ResourceMeter
	}{{"Slurm", slurmMeter}, {"ESlurm", esMeter}} {
		master.AddRow(row.name, fmtDur(row.m.CPUTime()), fmtBytes(row.m.VMem()),
			fmtBytes(row.m.RSS()), fmt.Sprintf("%.1f", row.m.AvgSockets()),
			fmt.Sprintf("%d", row.m.PeakSockets()))
	}
	master.Note = "paper: ESlurm <40% of Slurm's CPU time, >80% memory saving, >10x fewer sockets"

	sats := &Table{
		ID:      "fig9sat",
		Title:   "ESlurm satellite-node usage (Fig. 9d-f)",
		Columns: []string{"satellite", "CPU time", "vmem", "rss", "peak sockets"},
	}
	for i, id := range esCluster.Satellites() {
		m := &esCluster.Node(id).Meter
		sats.AddRow(fmt.Sprintf("satellite %d", i+1), fmtDur(m.CPUTime()),
			fmtBytes(m.VMem()), fmtBytes(m.RSS()), fmt.Sprintf("%d", m.PeakSockets()))
	}
	sats.Note = "paper: the two satellites balance evenly; sockets stay below 80"
	return []*Table{master, sats}
}

// Tables5and6 reproduces the NG-Tianhe satellite-count sweep (SE1..SE5 =
// 10..50 satellites at 20K+ nodes): Table V (master usage) and Table VI
// (average satellite operational data). The paper runs each setup for ten
// days; span is a knob and task counts are extrapolated to 10 days in the
// output.
func Tables5and6(env *Env, nodes int, satCounts []int, span time.Duration) []*Table {
	if len(satCounts) == 0 {
		satCounts = []int{10, 20, 30, 40, 50}
	}
	if span == 0 {
		span = 2 * time.Hour
	}
	cols := []string{"metric"}
	for i := range satCounts {
		cols = append(cols, fmt.Sprintf("SE%d(%d)", i+1, satCounts[i]))
	}
	t5 := &Table{
		ID:      "table5",
		Title:   fmt.Sprintf("Master usage vs satellite count, %d nodes, %s run (Table V)", nodes, span),
		Columns: cols,
	}
	t6 := &Table{
		ID:      "table6",
		Title:   "Average satellite operational data (Table VI)",
		Columns: cols,
	}

	extrapolate := float64(10*24*time.Hour) / float64(span)
	type outcome struct {
		cpu                 time.Duration
		vmem, rss           int64
		avgSock             float64
		tasks, nodesPerTask float64
		satVMem, satRSS     int64
		satSock             float64
	}
	results := make([]outcome, len(satCounts))
	for i, sc := range satCounts {
		var es *rm.ESlurm
		meter, c, r := resourceRun(env, func(c *cluster.Cluster) rm.RM {
			e := rm.NewESlurm(c)
			es = e
			return e
		}, nodes, sc, span, int64(300+i))
		o := outcome{
			cpu: meter.CPUTime(), vmem: meter.VMem(), rss: meter.RSS(),
			avgSock: meter.AvgSockets(),
		}
		var tasks, nodesServed int
		var vmemSum, rssSum int64
		var sockSum float64
		for _, s := range es.M.Pool.All() {
			tasks += s.TasksReceived
			nodesServed += s.NodesServed
			m := &c.Node(s.ID).Meter
			vmemSum += m.VMem()
			rssSum += m.RSS()
			sockSum += m.AvgSockets()
		}
		n := len(es.M.Pool.All())
		if n > 0 {
			o.tasks = float64(tasks) / float64(n) * extrapolate
			if tasks > 0 {
				o.nodesPerTask = float64(nodesServed) / float64(tasks)
			}
			o.satVMem = vmemSum / int64(n)
			o.satRSS = rssSum / int64(n)
			o.satSock = sockSum / float64(n)
		}
		results[i] = o
		_ = r
	}

	row := func(t *Table, name string, f func(outcome) string) {
		cells := []string{name}
		for _, o := range results {
			cells = append(cells, f(o))
		}
		t.AddRow(cells...)
	}
	row(t5, "CPU time", func(o outcome) string { return fmtDur(o.cpu) })
	row(t5, "virtual memory", func(o outcome) string { return fmtBytes(o.vmem) })
	row(t5, "real memory", func(o outcome) string { return fmtBytes(o.rss) })
	row(t5, "avg concurrent sockets", func(o outcome) string { return fmt.Sprintf("%.1f", o.avgSock) })
	t5.Note = "paper trend: every metric grows mildly with the satellite count (more direct peers for the master)"

	row(t6, "tasks received (per 10 days)", func(o outcome) string { return fmt.Sprintf("%.0f", o.tasks) })
	row(t6, "avg nodes per task", func(o outcome) string { return fmt.Sprintf("%.1f", o.nodesPerTask) })
	row(t6, "virtual memory", func(o outcome) string { return fmtBytes(o.satVMem) })
	row(t6, "real memory", func(o outcome) string { return fmtBytes(o.satRSS) })
	row(t6, "avg concurrent sockets", func(o outcome) string { return fmt.Sprintf("%.1f", o.satSock) })
	t6.Note = fmt.Sprintf("task counts extrapolated x%.0f from the %s run; paper trend: tasks ~constant, nodes/task and memory fall as satellites grow", extrapolate, span)
	return []*Table{t5, t6}
}
