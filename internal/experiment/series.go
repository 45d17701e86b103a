package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/rm"
	"eslurm/internal/stats"
)

// resourceSeries runs one RM under the standard job flow, sampling the
// master meter every interval, and returns the four figure lines of
// Fig. 7a–e / Fig. 9a–c: cumulative CPU seconds, virtual memory (MB),
// resident memory (MB), concurrent sockets.
func resourceSeries(env *Env, mk func(c *cluster.Cluster) rm.RM, name string, nodes, satellites int, span, interval time.Duration, seed int64) []*stats.Series {
	c := env.NewCluster(seed, cluster.Config{Computes: nodes, Satellites: satellites})
	e := c.Engine
	r := mk(c)
	r.Start()
	sampler := cluster.NewSampler(e, r.Meter(), interval)

	rng := e.Rand("experiment/jobs")
	var submit func()
	submit = func() {
		gap := time.Duration(30+rng.ExpFloat64()*70) * time.Second
		e.After(gap, func() {
			if e.Now() > span {
				return
			}
			size := 1 << rng.Intn(10)
			if size > nodes/2 {
				size = nodes / 2
			}
			jobNodes := c.Computes()[:size]
			r.LoadJob(jobNodes, func(time.Duration) {
				runFor := time.Duration(10+rng.ExpFloat64()*110) * time.Second
				e.After(runFor, func() { r.TerminateJob(jobNodes, nil) })
			})
			submit()
		})
	}
	submit()
	c.RunUntil(span)
	sampler.Stop()
	r.Stop()

	cpu := &stats.Series{Name: name + "_cpu_s"}
	vmem := &stats.Series{Name: name + "_vmem_mb"}
	rss := &stats.Series{Name: name + "_rss_mb"}
	socks := &stats.Series{Name: name + "_sockets"}
	for _, snap := range sampler.Samples {
		cpu.Append(snap.At, snap.CPUTime.Seconds())
		vmem.Append(snap.At, float64(snap.VMem)/(1<<20))
		rss.Append(snap.At, float64(snap.RSS)/(1<<20))
		socks.Append(snap.At, float64(snap.Sockets))
	}
	return []*stats.Series{cpu, vmem, rss, socks}
}

// WriteFigureSeries regenerates the time-series behind Fig. 7a–e (all six
// RMs at p.Fig7Nodes) and Fig. 9a–c (Slurm vs ESlurm at p.Fig9Nodes) and
// writes one CSV per metric into dir: fig7_cpu.csv, fig7_vmem.csv,
// fig7_rss.csv, fig7_sockets.csv and the fig9_* counterparts. The files
// re-plot directly with any tool that reads CSV.
func WriteFigureSeries(dir string, p Params) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	interval := time.Minute
	env := new(Env) // nothing reads the engines back; the CSVs are the output

	var fig7 []seriesContender
	for _, m := range rmRoster(plainESlurm) {
		sats := 0
		if m.name == "ESlurm" {
			sats = 2
		}
		fig7 = append(fig7, seriesContender{strings.ToLower(m.name), sats, m.new})
	}
	if err := writeSeriesSet(env, dir, "fig7", fig7, p.Fig7Nodes, p.Fig7Span, interval); err != nil {
		return err
	}
	fig9 := []seriesContender{fig7[4], fig7[5]} // Slurm vs ESlurm
	return writeSeriesSet(env, dir, "fig9", fig9, p.Fig9Nodes, p.Fig9Span, interval)
}

// seriesContender names one RM line of a figure.
type seriesContender struct {
	name string
	sats int
	mk   func(c *cluster.Cluster) rm.RM
}

func writeSeriesSet(env *Env, dir, prefix string, cs []seriesContender, nodes int, span, interval time.Duration) error {
	if span == 0 {
		span = time.Hour
	}
	// metric index -> per-RM series
	byMetric := make([][]*stats.Series, 4)
	for i, c := range cs {
		ss := resourceSeries(env, c.mk, c.name, nodes, c.sats, span, interval, int64(500+i))
		for m := 0; m < 4; m++ {
			byMetric[m] = append(byMetric[m], ss[m])
		}
	}
	names := []string{"cpu", "vmem", "rss", "sockets"}
	for m, metric := range names {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", prefix, metric))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := stats.WriteCSV(f, byMetric[m]...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
