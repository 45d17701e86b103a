package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// WriteFigureSeries regenerates the time-series behind Fig. 7a–e (all six
// RMs at p.Fig7Nodes) and Fig. 9a–c (Slurm vs ESlurm at p.Fig9Nodes) and
// writes one CSV per metric into dir: fig7_cpu.csv, fig7_vmem.csv,
// fig7_rss.csv, fig7_sockets.csv and the fig9_* counterparts. Each RM's
// lines are its table run — same seed, same job flow — sampled once a
// minute through the drain, so the last row is the meter the table
// prints. The files re-plot directly with any tool that reads CSV.
func WriteFigureSeries(dir string, p Params) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	env := new(Env) // nothing reads the engines back; the CSVs are the output
	if err := writeSeriesSet(env, dir, "fig7", fig7Contenders(), p.Fig7Nodes, p.Fig7Span); err != nil {
		return err
	}
	return writeSeriesSet(env, dir, "fig9", fig9Contenders(), p.Fig9Nodes, p.Fig9Span)
}

// series is a named sequence of (t, value) points — one figure line.
type series struct {
	name   string
	times  []time.Duration
	values []float64
}

func (s *series) add(at time.Duration, v float64) {
	s.times = append(s.times, at)
	s.values = append(s.values, v)
}

// writeSeriesSet reruns each contender's table run with a one-minute
// sample interval and writes the four figure lines — cumulative CPU
// seconds, virtual memory (MB), resident memory (MB), concurrent sockets —
// one CSV per metric.
func writeSeriesSet(env *Env, dir, prefix string, cs []resourceContender, nodes int, span time.Duration) error {
	// metric index -> per-RM series
	byMetric := make([][]*series, 4)
	for _, c := range cs {
		_, _, samples := resourceRun(env, c.mk, nodes, c.sats, span, c.seed, time.Minute)
		name := strings.ToLower(c.name)
		ss := []*series{
			{name: name + "_cpu_s"}, {name: name + "_vmem_mb"}, {name: name + "_rss_mb"}, {name: name + "_sockets"},
		}
		for _, snap := range samples {
			ss[0].add(snap.At, snap.CPUTime.Seconds())
			ss[1].add(snap.At, float64(snap.VMem)/(1<<20))
			ss[2].add(snap.At, float64(snap.RSS)/(1<<20))
			ss[3].add(snap.At, float64(snap.Sockets))
		}
		for m := range ss {
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
		if err := writeCSV(f, byMetric[m]); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV renders series sharing a time axis as CSV: header
// "seconds,<name1>,<name2>,..."; rows align by index (the samplers run
// on one schedule, so every series has the first one's points).
func writeCSV(w io.Writer, ss []*series) error {
	n := len(ss[0].times)
	for _, s := range ss {
		if len(s.times) != n {
			return fmt.Errorf("experiment: series %q has %d points, want %d", s.name, len(s.times), n)
		}
	}
	var sb strings.Builder
	sb.WriteString("seconds")
	for _, s := range ss {
		sb.WriteString("," + s.name)
	}
	sb.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%.0f", ss[0].times[i].Seconds())
		for _, s := range ss {
			fmt.Fprintf(&sb, ",%g", s.values[i])
		}
		sb.WriteString("\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
