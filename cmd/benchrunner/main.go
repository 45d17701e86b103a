// Command benchrunner regenerates the paper's tables and figures from the
// simulated reproduction. Each experiment prints the same rows/series the
// paper reports (see DESIGN.md §3 for the experiment index).
//
// Experiments are independent simulations, so they execute on a worker
// pool (-parallel, default GOMAXPROCS); tables are still printed to
// stdout in registry order, byte-identical to a serial run. Each
// experiment also runs its independent rows on GOMAXPROCS workers, so
// -parallel N keeps at most N × GOMAXPROCS simulations in flight, and
// the stderr "done in" time and events/s are those of the overlapped
// rows. Progress and timing go to stderr so stdout stays a stable
// artifact.
//
// Usage:
//
//	benchrunner -list                 # show available experiments
//	benchrunner -exp fig8b            # run one experiment (quick preset)
//	benchrunner -exp fig8a,fig8b      # run several, in registry order
//	benchrunner -exp fig10 -paper     # run at the paper's full scale
//	benchrunner -all                  # run every experiment
//	benchrunner -all -parallel 4      # ...on exactly 4 workers
//	benchrunner -all -json BENCH_quick.json  # ...and write the perf record
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
// `benchrunner -spans` prints the span/metric taxonomy tables that
// OBSERVABILITY.md embeds (and docs_test.go byte-gates).
// -json writes the perf record: each experiment's event and message
// counts and the model fits and SVR sweeps of its estimator replays and
// framework-planned schedules, exact for
// a preset on any machine and at any -parallel, so a fresh record is
// compared with the committed BENCH_quick.json byte for byte.
// Wall-clock is bench/'s to measure, not the record's.
// -cpuprofile and -memprofile write pprof files covering the experiments
// alone (not flag parsing, not the -json record): host-time questions
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
	"strings"
	"time"

	"eslurm/internal/experiment"
	"eslurm/internal/hostprof/profile"
	"eslurm/internal/obs"
	"eslurm/internal/obs/critpath"
	"eslurm/internal/workpool"
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
		jsonPath = fs.String("json", "", "write the perf record (per-experiment event, message and model-fit counts) to this file")
		trace    = fs.String("trace", "", "write a Chrome trace_event JSON of every engine to this file")
		metrics  = fs.Bool("metrics", false, "dump each engine's metrics registry to stdout")
		critPath = fs.String("critpath", "", "write the deterministic critical-path report of every engine to this file")
		spans    = fs.Bool("spans", false, "print the span and metric taxonomy tables (the generated half of OBSERVABILITY.md) and exit")
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

	fmt.Fprintf(stderr, "-- %d experiment(s), %s preset, %d worker(s)\n", len(specs), preset, workpool.Workers(len(specs), *parallel))
	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	suiteStart := time.Now()
	var results []experiment.Result
	if *trace != "" || *critPath != "" {
		results = experiment.RunTraced(specs, params, *parallel, emit)
	} else {
		results = experiment.RunConcurrent(specs, params, *parallel, emit)
	}
	suiteWall := time.Since(suiteStart)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "-- suite done in %s\n", suiteWall.Round(time.Millisecond))
	if err := critpath.WriteFlags(stdout, stderr, experiment.Recordings(results), *trace, *critPath, *metrics); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *jsonPath != "" {
		if err := writePerfRecord(*jsonPath, preset, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "-- wrote %s\n", *jsonPath)
	}
	return 0
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

// A perfRecord is the perf record the repo commits for the quick preset
// (BENCH_quick.json): regenerate it with `go run ./cmd/benchrunner -all
// -json BENCH_quick.json`. It holds only what the preset fixes — no host,
// no wall-clock — so two runs on any machines at any -parallel write the
// same bytes, and CI compares a fresh record with diff.
type perfRecord struct {
	Preset      string      `json:"preset"`
	TotalEvents uint64      `json:"total_events"`
	Experiments []expRecord `json:"experiments"`
}

// An expRecord is one experiment's line: the events its engines ran, the
// messages its broadcasters sent (comm.messages, retries included), so
// events per message is read off the record, and the model fits and SVR
// sweeps of its estimator replays and framework-planned schedules
// (estimate.Work; zero for an experiment that fits no model).
type expRecord struct {
	ID        string `json:"id"`
	Artifact  string `json:"artifact"`
	Events    uint64 `json:"events"`
	Messages  int64  `json:"messages"`
	Fits      int64  `json:"fits"`
	SVRSweeps int64  `json:"svr_sweeps"`
}

func writePerfRecord(path, preset string, results []experiment.Result) error {
	rec := perfRecord{Preset: preset}
	for _, r := range results {
		rec.TotalEvents += r.Events
		var messages int64
		for _, e := range r.Engines {
			messages += e.Metrics.CounterValue("comm.messages")
		}
		rec.Experiments = append(rec.Experiments, expRecord{
			ID:        r.Spec.ID,
			Artifact:  r.Spec.Artifact,
			Events:    r.Events,
			Messages:  messages,
			Fits:      r.Fits,
			SVRSweeps: r.SVRSweeps,
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
