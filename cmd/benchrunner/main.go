// Command benchrunner regenerates the paper's tables and figures from the
// simulated reproduction. Each experiment prints the same rows/series the
// paper reports (see DESIGN.md §3 for the experiment index).
//
// Experiments are independent simulations, so they execute on a worker
// pool (-parallel, default GOMAXPROCS); tables are still printed to
// stdout in registry order, byte-identical to a serial run. Progress and
// timing go to stderr so stdout stays a stable artifact.
//
// Usage:
//
//	benchrunner -list                 # show available experiments
//	benchrunner -exp fig8b            # run one experiment (quick preset)
//	benchrunner -exp fig8a,fig8b      # run several, in registry order
//	benchrunner -exp fig10 -paper     # run at the paper's full scale
//	benchrunner -all                  # run every experiment
//	benchrunner -all -parallel 4      # ...on exactly 4 workers
//	benchrunner -all -json            # ...and write BENCH_quick.json
//	benchrunner -all -jsonout f.json  # ...perf record to f.json (CI gate)
//	benchrunner -exp fig7f -shards 4  # rack-partitioned clusters on 4 workers
//	benchrunner -exp fig8b -trace t.json   # Chrome trace of every engine
//	benchrunner -exp fig8b -metrics        # dump each engine's registry
//	benchrunner -exp fig7f -critpath cp.txt  # critical-path attribution
//	benchrunner -exp table8 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -critpath arms span recording on every engine and writes the
// deterministic critical-path report (internal/obs/critpath) for the
// whole run: per experiment × root-span kind, top-K slowest paths,
// per-kind time attribution, retry/rebuild share. Same flags →
// byte-identical file; diff two runs with `critdiff a.txt b.txt`.
// -trace, -metrics and -critpath run on the ordinary worker pool: their
// output is assembled from the results in registry order, each
// experiment's engines in creation order, so it is byte-identical at any
// -parallel.
// -shards N (N >= 1) partitions every cluster an experiment builds through
// experiment.Env.NewCluster — the occupation probes behind fig7f, fig10 and
// the ablation — into a control cell plus one cell per compute rack, run
// on N workers; tables are identical for every N >= 1. A selection in
// which no experiment builds such a cluster exits 2 naming the
// experiments, rather than run one-cell and say nothing.
// `benchrunner -spans` prints the span/metric taxonomy tables that
// OBSERVABILITY.md embeds (and docs_test.go byte-gates).
// -cpuprofile and -memprofile write pprof files covering the experiments
// alone (not flag parsing, not the -json microbench): host-time questions
// ("where does table8 spend its CPU") that the simulated-time trace cannot
// answer. Read them with `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"eslurm/internal/experiment"
	"eslurm/internal/obs"
	"eslurm/internal/simnet/benchkit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams as parameters, so the tests
// drive the whole CLI in-process; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "experiment ID to run (see -list); a comma-separated list runs each, in registry order")
		all      = fs.Bool("all", false, "run every experiment")
		paper    = fs.Bool("paper", false, "use the paper-scale preset (slow: full node counts)")
		list     = fs.Bool("list", false, "list available experiments")
		csvDir   = fs.String("csv", "", "also write the Fig. 7/9 time-series CSVs into this directory")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker-pool size (tables always print in registry order)")
		jsonOut  = fs.Bool("json", false, "write a BENCH_<preset>.json perf record (suite stats + kernel microbench)")
		jsonPath = fs.String("jsonout", "", "write the perf record to this path instead of BENCH_<preset>.json (implies -json); lets CI produce a fresh record without clobbering the committed baseline")
		trace    = fs.String("trace", "", "write a Chrome trace_event JSON of every engine to this file")
		metrics  = fs.Bool("metrics", false, "dump each engine's metrics registry to stdout")
		critPath = fs.String("critpath", "", "write the deterministic critical-path report of every engine to this file")
		spans    = fs.Bool("spans", false, "print the span and metric taxonomy tables (the generated half of OBSERVABILITY.md) and exit")
		shards   = fs.Int("shards", 0, "partition the clusters built through Env.NewCluster (fig7f, fig10, ablation) by rack and run their cells on N workers (0 = one cell)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof allocation profile, taken when the experiments finish, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "available experiments:")
		for _, s := range experiment.Registry() {
			fmt.Fprintf(stdout, "  %-10s %s\n", s.ID, s.Artifact)
		}
		return 0
	}
	if *spans {
		// The exact blocks OBSERVABILITY.md embeds; docs_test.go byte-gates
		// them, so paste this output verbatim when the taxonomy changes.
		fmt.Fprint(stdout, obs.SpanTaxonomyMarkdown())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, obs.MetricTaxonomyMarkdown())
		return 0
	}

	params := experiment.QuickParams()
	preset := "quick"
	if *paper {
		params = experiment.PaperParams()
		preset = "paper"
	}
	params.Shards = *shards

	if *csvDir != "" {
		fmt.Fprintf(stderr, "-- writing figure time series to %s\n", *csvDir)
		if err := experiment.WriteFigureSeries(*csvDir, params); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *expID == "" && !*all {
			return 0
		}
	}

	var specs []experiment.Spec
	switch {
	case *all:
		specs = experiment.Registry()
	case *expID != "":
		var err error
		if specs, err = lookupAll(*expID); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	default:
		fs.Usage()
		return 2
	}

	emit := func(r experiment.Result) {
		fmt.Fprintf(stderr, "-- %s (%s) done in %s: %d events, %.0f events/s\n",
			r.Spec.ID, r.Spec.Artifact, r.Wall.Round(time.Millisecond), r.Events, r.EventsPerSec())
		for _, tb := range r.Tables {
			tb.Fprint(stdout)
		}
	}

	fmt.Fprintf(stderr, "-- %d experiment(s), %s preset, %d worker(s)\n", len(specs), preset, *parallel)
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	suiteStart := time.Now()
	var results []experiment.Result
	if spans := *trace != "" || *critPath != ""; spans || *metrics {
		results = experiment.RunObserved(specs, params, *parallel, spans, emit)
	} else {
		results = experiment.RunConcurrent(specs, params, *parallel, emit)
	}
	suiteWall := time.Since(suiteStart)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "-- suite done in %s\n", suiteWall.Round(time.Millisecond))
	partitioned, ids := false, make([]string, len(results))
	for i, r := range results {
		partitioned = partitioned || r.Sharded
		ids[i] = r.Spec.ID
	}
	if *shards > 0 && !partitioned {
		fmt.Fprintf(stderr, "benchrunner: -shards %d partitioned nothing: none of %s builds a cluster through Env.NewCluster, so every table above is the one-cell run\n",
			*shards, strings.Join(ids, ", "))
		return 2
	}
	if err := writeObserved(stdout, stderr, experiment.ObservedEngines(results), *trace, *critPath, *metrics); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *jsonOut || *jsonPath != "" {
		path := *jsonPath
		if path == "" {
			path = "BENCH_" + preset + ".json"
		}
		if err := writePerfRecord(stderr, path, preset, *parallel, *shards, suiteWall, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "-- wrote %s\n", path)
	}
	return 0
}

// startProfiles starts the CPU profile and returns the function that stops
// it and writes the allocation profile; an empty path skips that profile.
// Both files are created up front, so a bad path fails before the run.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // the allocs profile is as of the last completed collection
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}

// lookupAll resolves a comma-separated -exp value into specs in registry
// order, whatever order the IDs were given in, so the run's output order
// is the same as -all's.
func lookupAll(ids string) ([]experiment.Spec, error) {
	want := make(map[string]bool)
	for _, id := range strings.Split(ids, ",") {
		s, ok := experiment.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; try -list", id)
		}
		want[s.ID] = true
	}
	var specs []experiment.Spec
	for _, s := range experiment.Registry() {
		if want[s.ID] {
			specs = append(specs, s)
		}
	}
	return specs, nil
}

// writeObserved emits what the observability flags asked for from the
// engines a RunObserved call kept (none after a plain run, so every
// branch is a no-op then). The Chrome file gets one process per engine —
// pid is the engine's index across the whole run, the process name
// carries the experiment ID and the engine's seed — -critpath feeds the
// same engines, with the same labels, through experiment.CritpathReport,
// and -metrics dumps each engine's registry in the same order.
func writeObserved(stdout, stderr io.Writer, all []experiment.TracedEngine, tracePath, critPath string, metrics bool) error {
	if tracePath != "" {
		procs := make([]obs.Process, 0, len(all))
		for i, o := range all {
			procs = append(procs, obs.Process{
				PID:  i,
				Name: fmt.Sprintf("%s engine %d seed %d", o.Exp, i, o.E.Seed()),
				T:    o.E.Tracer(),
			})
		}
		err := obs.WriteFile(tracePath, func(w io.Writer) error { return obs.WriteChrome(w, procs...) })
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "-- trace: %d engine(s) -> %s\n", len(procs), tracePath)
	}
	if critPath != "" {
		rep := experiment.CritpathReport(all, 5)
		if err := obs.WriteFile(critPath, rep.WriteText); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "-- critpath: %d source(s) -> %s\n", rep.Sources, critPath)
	}
	if metrics {
		for i, o := range all {
			fmt.Fprintf(stdout, "metrics %s engine %d seed %d:\n", o.Exp, i, o.E.Seed())
			o.E.Metrics().WriteText(stdout)
		}
	}
	return nil
}

// A perfRecord is the benchmark trajectory the repo commits per preset:
// regenerate with `go run ./cmd/benchrunner -all -json [-paper]` and
// compare against the committed BENCH_<preset>.json (see the
// "Performance" section of DESIGN.md).
type perfRecord struct {
	Preset string `json:"preset"`
	// Parallel is the experiment worker-pool size; Shards is the -shards
	// setting: the worker count for the experiments that partition their
	// clusters, 0 for one cell.
	Parallel     int          `json:"parallel"`
	Shards       int          `json:"shards"`
	GoVersion    string       `json:"go_version"`
	GOOS         string       `json:"goos"`
	GOARCH       string       `json:"goarch"`
	NumCPU       int          `json:"num_cpu"`
	SuiteWallMS  float64      `json:"suite_wall_ms"`
	TotalEvents  uint64       `json:"total_events"`
	EventsPerSec float64      `json:"events_per_sec"`
	Experiments  []expRecord  `json:"experiments"`
	Kernel       []benchEntry `json:"kernel_microbench"`
}

type expRecord struct {
	ID       string  `json:"id"`
	Artifact string  `json:"artifact"`
	WallMS   float64 `json:"wall_ms"`
	Events   uint64  `json:"events"`
	// Shards is the worker count this experiment actually ran with: the
	// -shards setting when it built a partitioned cluster, 0 when every
	// cluster it built was one cell.
	Shards       int     `json:"shards"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Seed* record the same benchmark measured on the pre-optimization
	// kernel (commit 1aa33b8: container/heap + per-event allocation +
	// unmemoized Rand) on the reference machine, so the record carries
	// the seed-vs-optimized trajectory.
	SeedNsPerOp     float64 `json:"seed_ns_per_op"`
	SeedAllocsPerOp int64   `json:"seed_allocs_per_op"`
	SeedBytesPerOp  int64   `json:"seed_bytes_per_op"`
}

// seedKernelBaseline is the reference measurement of the pre-optimization
// kernel (Intel Xeon 2.10GHz, go1.24, linux/amd64, -benchtime=2s):
// ns/op, allocs/op, B/op.
var seedKernelBaseline = map[string][3]float64{
	"EngineStep":           {218.8, 1, 48},
	"EngineScheduleCancel": {124.1, 2, 96},
	"EngineRand":           {12543, 4, 5448},
}

func writePerfRecord(stderr io.Writer, path, preset string, parallel, shards int, suiteWall time.Duration, results []experiment.Result) error {
	rec := perfRecord{
		Preset:      preset,
		Parallel:    parallel,
		Shards:      shards,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		SuiteWallMS: float64(suiteWall.Microseconds()) / 1e3,
	}
	for _, r := range results {
		rec.TotalEvents += r.Events
		expShards := 0
		if r.Sharded {
			expShards = shards
		}
		rec.Experiments = append(rec.Experiments, expRecord{
			ID:           r.Spec.ID,
			Artifact:     r.Spec.Artifact,
			WallMS:       float64(r.Wall.Microseconds()) / 1e3,
			Events:       r.Events,
			Shards:       expShards,
			EventsPerSec: r.EventsPerSec(),
		})
	}
	if suiteWall > 0 {
		rec.EventsPerSec = float64(rec.TotalEvents) / suiteWall.Seconds()
	}
	fmt.Fprintln(stderr, "-- running kernel microbenchmarks")
	for _, kb := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"EngineStep", benchkit.Step},
		{"EngineScheduleCancel", benchkit.ScheduleCancel},
		{"EngineRand", benchkit.Rand},
	} {
		br := testing.Benchmark(kb.fn)
		seed := seedKernelBaseline[kb.name]
		rec.Kernel = append(rec.Kernel, benchEntry{
			Name:            kb.name,
			NsPerOp:         float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp:     br.AllocsPerOp(),
			BytesPerOp:      br.AllocedBytesPerOp(),
			SeedNsPerOp:     seed[0],
			SeedAllocsPerOp: int64(seed[1]),
			SeedBytesPerOp:  int64(seed[2]),
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
