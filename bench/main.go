// Command bench is the repository's benchmark: four fixed-input workloads
// driven through experiment.RunConcurrent and the chaos soaks, end-to-end
// metrics from an untraced pass, per-layer metrics and a host-time span
// dump from a separate traced pass. README.md in this directory says why
// each workload and metric exists; BENCHMARK.json at the repository root
// is the machine-readable summary.
//
// Two ways to run it, both through run.sh (which builds into .bench_build):
//
//	bash bench/run.sh                                  # every workload, both passes, full report
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The second form runs one pass and prints one result object as the last
// line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"
)

// workers is GOMAXPROCS of every pass: the shard kernel's two workers,
// one runnable goroutine everywhere else, the same on every machine.
const workers = 2

// minIters is the least number of timed iterations an untraced pass takes.
const minIters = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the chaos campaigns and of every probe's generated input")
	seconds := flag.Float64("seconds", 0, "keep timing iterations for this long; at least three are always timed")
	trace := flag.Int("trace", -1, "0: untraced pass, end-to-end metrics as one result line; 1: traced pass, per-layer metrics as one result line; unset: both passes and the full report")
	traceOut := flag.String("trace-out", "", "file for the traced pass's Chrome trace, with -workload (default: trace-<workload>.json beside the binary)")
	child := flag.String("child", "", "internal: run the pass described by this JSON and print its result")
	flag.Parse()

	if *child != "" {
		var cfg passConfig
		if err := json.Unmarshal([]byte(*child), &cfg); err != nil {
			log.Fatalf("child config: %v", err)
		}
		res, err := runPass(cfg, fullSizes())
		if err != nil {
			log.Fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	switch {
	case len(names) == 0:
		log.Fatalf("unknown workload %q", *workload)
	case len(names) > 1 && (*trace >= 0 || *traceOut != ""):
		log.Fatal("--trace and -trace-out need --workload")
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	// An interrupted benchmark takes its child down with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pass := func(name string, traced bool) passResult {
		cfg := passConfig{Workload: name, Seed: *seed, Seconds: *seconds, Traced: traced}
		if traced {
			cfg.TraceOut = *traceOut
			if cfg.TraceOut == "" {
				cfg.TraceOut = filepath.Join(filepath.Dir(exe), "trace-"+name+".json")
			}
		}
		res, err := spawnPass(ctx, exe, cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return res
	}
	var out any
	if *trace >= 0 {
		out = resultLine(pass(names[0], *trace == 1))
	} else {
		out = fullReport(names, *seed, pass)
	}
	enc := json.NewEncoder(os.Stdout)
	if *trace < 0 {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// resultLine is the driver's form of one pass: the end-to-end metrics of
// an untraced pass or the per-layer metrics of a traced one.
func resultLine(res passResult) map[string]any {
	defs, values := endToEnd, endToEndValues(res)
	if res.Traced {
		defs, values = perLayer, res.Layer
	}
	printTable(os.Stderr, res, defs, values)
	return map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": metricObject(defs, values),
	}
}

// fullReport runs both passes of every named workload and returns the
// document that holds every metric.
func fullReport(names []string, seed int64, pass func(name string, traced bool) passResult) map[string]any {
	type workloadReport struct {
		Name      string         `json:"name"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Failures  []string       `json:"failures,omitempty"`
		EndToEnd  map[string]any `json:"end_to_end"`
		// WallSamples are the timed iterations; with fewer than ten no
		// tail percentile is reported, only the quartiles.
		WallSamples   []float64      `json:"wall_samples_s"`
		WallQuartiles [3]float64     `json:"wall_quartiles_s"`
		PerLayer      map[string]any `json:"per_layer"`
	}
	start := time.Now()
	var reports []workloadReport
	for _, name := range names {
		plain, traced := pass(name, false), pass(name, true)
		e2e := endToEndValues(plain)
		printTable(os.Stderr, plain, endToEnd, e2e)
		printTable(os.Stderr, traced, perLayer, traced.Layer)
		r := workloadReport{
			Name:      name,
			Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed,
			Failures:    append(plain.Failures, traced.Failures...),
			EndToEnd:    metricObject(endToEnd, e2e),
			WallSamples: plain.Samples,
			PerLayer:    metricObject(perLayer, traced.Layer),
		}
		r.EndToEnd["failed_share"] = map[string]any{"value": float64(r.Failed) / float64(r.Attempted), "unit": "ratio"}
		for i, q := range []float64{0.25, 0.5, 0.75} {
			r.WallQuartiles[i] = quantile(plain.Samples, q)
		}
		reports = append(reports, r)
	}
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "go %s, %d CPUs, GOMAXPROCS %d, seed %d, elapsed %.1fs\n",
		runtime.Version(), runtime.NumCPU(), workers, seed, elapsed)
	return map[string]any{
		"go_version": runtime.Version(), "num_cpu": runtime.NumCPU(), "gomaxprocs": workers,
		"seed": seed, "elapsed_s": elapsed, "workloads": reports,
	}
}

// spawnPass runs the pass in a child process of this binary and returns
// its result once the child has exited.
func spawnPass(ctx context.Context, exe string, cfg passConfig) (passResult, error) {
	var res passResult
	cfg.SpawnedAt = time.Now().UnixNano()
	arg, err := json.Marshal(cfg)
	if err != nil {
		return res, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("pass failed: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("pass result: %w", err)
	}
	return res, nil
}

// endToEndValues derives the end-to-end metrics from an untraced pass.
func endToEndValues(res passResult) map[string]float64 {
	return map[string]float64{
		"wall_s":      median(res.Samples),
		"peak_rss_mb": res.PeakRSSMB,
		"setup_s":     res.SetupS,
	}
}

func metricObject(defs []metricDef, values map[string]float64) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
	}
	return out
}

// printTable writes the human-readable form of one pass.
func printTable(w *os.File, res passResult, defs []metricDef, values map[string]float64) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass): %d ops, %d failed, %d timed iterations %.3v s ==\n",
		res.Workload, kind, res.Attempted, res.Failed, len(res.Samples), res.Samples)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, values[d.name], d.unit)
	}
	tw.Flush()
}
