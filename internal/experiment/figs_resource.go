package experiment

import (
	"fmt"
	"math"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/rm"
)

// resourceRun drives one RM on a fresh cluster for `span` of virtual time
// under a light production-like job flow (a job every ~100 s, lognormal
// sizes, short runtimes) and returns the master meter plus the cluster for
// satellite inspection. A sample interval > 0 also snapshots the master
// meter every interval through the drain, so the last sample is the
// meter the tables print; 0 takes no samples.
func resourceRun(env *Env, mk func(c *cluster.Cluster) rm.RM, nodes, satellites int, span time.Duration, seed int64, sample time.Duration) (*cluster.ResourceMeter, *cluster.Cluster, []cluster.Snapshot) {
	c := env.NewCluster(seed, cluster.Config{Computes: nodes, Satellites: satellites})
	e := c.Engine
	r := mk(c)
	r.Start()
	var sampler *cluster.Sampler
	if sample > 0 {
		sampler = cluster.NewSampler(e, r.Meter(), sample)
	}

	rng := e.Rand("experiment/jobs")
	var submit func()
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
			r.LoadJob(jobNodes, func(comm.Result) {
				runFor := time.Duration(10+rng.ExpFloat64()*110) * time.Second
				e.After(runFor, func() { r.TerminateJob(jobNodes, nil) })
			})
			submit()
		})
	}
	submit()

	c.RunUntil(span)
	r.Stop()
	// Drain remaining activity: the meters the tables print accrue through it.
	c.RunUntil(span + 30*time.Minute)
	if sampler == nil {
		return r.Meter(), c, nil
	}
	sampler.Stop()
	return r.Meter(), c, sampler.Samples
}

// resourceContender is one RM line of a resource figure: its table name,
// satellite count, run seed and constructor. The tables and the -csv
// series both run from these lists, so a series is the table's own run.
type resourceContender struct {
	name string
	sats int
	seed int64
	mk   func(c *cluster.Cluster) rm.RM
}

// fig7Contenders returns Fig. 7's six RMs in table order; ESlurm gets two
// satellites.
func fig7Contenders() []resourceContender {
	var out []resourceContender
	for i, m := range rmRoster(plainESlurm) {
		sats := 0
		if m.name == "ESlurm" {
			sats = 2
		}
		out = append(out, resourceContender{m.name, sats, int64(100 + i), m.new})
	}
	return out
}

// fig9Contenders returns Fig. 9's Slurm and two-satellite ESlurm.
func fig9Contenders() []resourceContender {
	return []resourceContender{
		{"Slurm", 0, 200, centralized(rm.SlurmProfile())},
		{"ESlurm", 2, 201, plainESlurm},
	}
}

// Fig7 reproduces the master-node resource comparison of Fig. 7a–e: six
// RMs managing the same cluster for `span` virtual time under the same job
// flow. The paper runs 24 h at 4,096 nodes; span is a knob so the default
// benchrunner invocation stays fast.
func Fig7(env *Env, nodes int, span time.Duration) *Table {
	t := &Table{
		ID:    "fig7",
		Title: fmt.Sprintf("Master-node resource usage, %d nodes, %s run (Fig. 7a-e)", nodes, span),
		Columns: []string{"RM", "CPU time", "CPU util", "vmem", "rss",
			"avg sockets", "peak sockets"},
	}
	cs := fig7Contenders()
	rows := sideBySide(env, len(cs), func(i int, env *Env) []string {
		m := cs[i]
		meter, c, _ := resourceRun(env, m.mk, nodes, m.sats, span, m.seed, 0)
		util := meter.CPUTime().Seconds() / span.Seconds()
		return []string{m.name, fmtDur(meter.CPUTime()), fmtPct(util),
			fmtBytes(meter.VMem()), fmtBytes(meter.RSS()),
			fmt.Sprintf("%.1f", meter.AvgSockets(c.Engine.Now())), fmt.Sprintf("%d", meter.PeakSockets())}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note = "paper (24h, 4K nodes): ESlurm lowest CPU/rss/sockets; Slurm ~10GB vmem; SGE/OpenPBS hold node-count socket pools; ESlurm <100 sockets, <2GB vmem, ~60MB rss"
	return t
}

// Fig9 reproduces the full-scale Tianhe-2A comparison (16,384 nodes):
// Slurm vs ESlurm (two satellite nodes) master usage, plus the two
// satellites' own usage (Fig. 9d–f).
func Fig9(env *Env, nodes int, span time.Duration) []*Table {
	master := &Table{
		ID:    "fig9",
		Title: fmt.Sprintf("Master usage at %d nodes, %s run (Fig. 9a-c)", nodes, span),
		Columns: []string{"RM", "CPU time", "vmem", "rss",
			"avg sockets", "peak sockets"},
	}

	// A row renders its cells before it returns, so its cluster is
	// released with it rather than held until the driver returns.
	type run struct {
		master []string   // the master-usage row
		sats   [][]string // one row per satellite
	}
	cs := fig9Contenders()
	runs := sideBySide(env, len(cs), func(i int, env *Env) run {
		m, c, _ := resourceRun(env, cs[i].mk, nodes, cs[i].sats, span, cs[i].seed, 0)
		r := run{master: []string{cs[i].name, fmtDur(m.CPUTime()), fmtBytes(m.VMem()),
			fmtBytes(m.RSS()), fmt.Sprintf("%.1f", m.AvgSockets(c.Engine.Now())),
			fmt.Sprintf("%d", m.PeakSockets())}}
		for j, id := range c.Satellites() {
			sm := c.Meter(id)
			r.sats = append(r.sats, []string{fmt.Sprintf("satellite %d", j+1), fmtDur(sm.CPUTime()),
				fmtBytes(sm.VMem()), fmtBytes(sm.RSS()), fmt.Sprintf("%d", sm.PeakSockets())})
		}
		return r
	})
	sats := &Table{
		ID:      "fig9sat",
		Title:   "ESlurm satellite-node usage (Fig. 9d-f)",
		Columns: []string{"satellite", "CPU time", "vmem", "rss", "peak sockets"},
	}
	for i, row := range cs {
		master.AddRow(runs[i].master...)
		if row.sats > 0 {
			for _, sat := range runs[i].sats {
				sats.AddRow(sat...)
			}
		}
	}
	master.Note = "paper: ESlurm <40% of Slurm's CPU time, >80% memory saving, >10x fewer sockets"

	sats.Note = "paper: the two satellites balance evenly; sockets stay below 80"
	return []*Table{master, sats}
}

// Tables5and6 reproduces the NG-Tianhe satellite-count sweep (SE1..SE5 =
// 10..50 satellites at 20K+ nodes): Table V (master usage) and Table VI
// (average satellite operational data). The paper runs each setup for ten
// days; span is a knob and task counts are extrapolated to 10 days in the
// output.
func Tables5and6(env *Env, nodes int, satCounts []int, span time.Duration) []*Table {
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
	results := sideBySide(env, len(satCounts), func(i int, env *Env) outcome {
		var es *core.Master
		meter, c, _ := resourceRun(env, func(c *cluster.Cluster) rm.RM {
			es = core.NewMaster(c, core.DefaultConfig(), nil)
			return es
		}, nodes, satCounts[i], span, int64(300+i), 0)
		now := c.Engine.Now()
		o := outcome{
			cpu: meter.CPUTime(), vmem: meter.VMem(), rss: meter.RSS(),
			avgSock: meter.AvgSockets(now),
		}
		var tasks, nodesServed int
		var vmemSum, rssSum int64
		var sockSum float64
		for _, s := range es.Pool.All() {
			tasks += s.TasksReceived
			nodesServed += s.NodesServed
			m := c.Meter(s.ID)
			vmemSum += m.VMem()
			rssSum += m.RSS()
			sockSum += m.AvgSockets(now)
		}
		n := len(es.Pool.All())
		if n > 0 {
			o.tasks = float64(tasks) / float64(n) * extrapolate
			if tasks > 0 {
				o.nodesPerTask = float64(nodesServed) / float64(tasks)
			}
			o.satVMem = vmemSum / int64(n)
			o.satRSS = rssSum / int64(n)
			o.satSock = sockSum / float64(n)
		}
		return o
	})

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
