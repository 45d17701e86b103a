// Command chaossoak runs the deterministic chaos soak: the full ESlurm
// stack under an adversarial fault campaign (bursts, flaps, gray nodes,
// partitions, satellite kills, message loss and duplication) across N
// seeds, checking the end-to-end invariants documented in package chaos
// after every broadcast and after teardown.
//
// The report is byte-identical for the same flags — a failing seed is
// replayable with `-seeds 1 -seed <k>`. The exit status is 1 when any
// invariant was violated.
//
// Usage:
//
//	chaossoak                         # default mix: 8 seeds, 1024 nodes
//	chaossoak -seeds 4                # CI smoke
//	chaossoak -seeds 1 -seed 7        # replay one seed
//	chaossoak -loss 0.05 -dup 0.05    # crank the network adversities
//	chaossoak -trace soak.json        # Chrome/Perfetto trace, one pid per seed
//	chaossoak -metrics                # dump each seed's metrics registry
//	chaossoak -critpath cp.txt        # critical-path attribution per seed
//	chaossoak -reconcile              # chaos campaign under the reconciler
//	chaossoak -reconcile -spec s.json # custom spec schedule for the soak
//	chaossoak -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -critpath arms span recording and writes the deterministic
// critical-path report (internal/obs/critpath): per root-span kind, the
// top-K slowest broadcasts with their hop chains, per-kind time
// attribution, and retry/rebuild share. Diff two reports with
// `critdiff a.txt b.txt`.
//
// -cpuprofile and -memprofile write pprof files covering the soak run
// alone (not flag parsing, not the trace or critical-path files), in host
// time, for either soak: "where does the soak spend its CPU". They change
// no byte of the report. Read them with `go tool pprof`.
//
// -loss, -dup and -silent are probabilities: a value outside [0,1] is an
// error (exit 2), and so is a -seeds, -nodes, -sats or -broadcasts below
// 1 or a -span or -bound that is not positive, in either soak, and a
// -target below 0 or above the satellite pool (-sats, or the reconcile
// soak's default of chaos.ReconcileSatellites). A flag the
// selected soak cannot honour is an error (exit 2) too, never silently
// dropped: -reconcile records no spans and keeps no registry (-critpath,
// -trace, -metrics) and fixes its silent fraction (-silent), and
// -target/-spec mean nothing without -reconcile.
//
// With -reconcile the soak overlays the full fault campaign on a
// reconciler driving a timed spec schedule (chaos.ReconcileSoak) and
// additionally asserts the convergence contract: after the last fault
// heals, every seed reaches spec within the round budget, with no task
// dropped during graceful drains. -spec replaces the built-in schedule
// with a JSON spec/schedule file. Both soaks fan their independent seeds
// out over GOMAXPROCS workers; the report is byte-identical for any
// worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"eslurm/internal/chaos"
	"eslurm/internal/hostprof/profile"
	"eslurm/internal/obs"
	"eslurm/internal/obs/critpath"
	"eslurm/internal/reconcile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// The two soaks, named as the refusal message names them.
const (
	modeSoak      = "the plain soak"
	modeReconcile = "-reconcile"
)

// unsupported lists, per soak, the flags it has nothing to honour them
// with, and why.
var unsupported = map[string]map[string]string{
	modeReconcile: {
		"critpath": "the reconcile soak records no spans",
		"trace":    "the reconcile soak records no spans",
		"metrics":  "the reconcile soak keeps no per-seed registry",
		"silent":   "the reconcile soak draws its campaign with a fixed silent fraction",
	},
	modeSoak: {
		"target": "it is a -reconcile setting",
		"spec":   "it is a -reconcile setting",
	},
}

// run is main with its arguments and streams as parameters, so the tests
// drive the whole CLI in-process; it returns the exit status: 0 clean, 1
// when an invariant was violated, 2 on a usage or I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := chaos.DefaultConfig()
	fs := flag.NewFlagSet("chaossoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", cfg.Seeds, "number of seeds to soak")
	base := fs.Int64("seed", cfg.BaseSeed, "first seed")
	nodes := fs.Int("nodes", cfg.Computes, "compute nodes")
	sats := fs.Int("sats", cfg.Satellites, "satellite nodes")
	span := fs.Duration("span", cfg.Span, "driven virtual time per seed")
	bcasts := fs.Int("broadcasts", cfg.Broadcasts, "broadcasts driven over the span")
	bound := fs.Duration("bound", cfg.Bound, "per-broadcast resolution bound")
	loss := fs.Float64("loss", cfg.LossProb, "message loss probability")
	dup := fs.Float64("dup", cfg.DupProb, "message duplication probability")
	silent := fs.Float64("silent", cfg.SilentFraction, "fraction of fail-stops hidden from monitoring")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of every seed to this file")
	critPath := fs.String("critpath", "", "write the deterministic critical-path report of every seed to this file")
	metrics := fs.Bool("metrics", false, "dump each seed's metrics registry after the report")
	reconcileMode := fs.Bool("reconcile", false, "overlay the campaign on a reconciler and assert convergence (chaos.ReconcileSoak)")
	target := fs.Int("target", 0, "reconcile mode: initial in-service satellite target (0 = default)")
	specPath := fs.String("spec", "", "reconcile mode: spec/schedule JSON replacing the built-in schedule")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the soak run to this file")
	memProf := fs.String("memprofile", "", "write a pprof allocation profile, taken when the soak finishes, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "chaossoak:", err)
		return 2
	}
	// profiled runs soak under the -cpuprofile/-memprofile profiles.
	profiled := func(soak func()) error {
		stop, err := profile.Start(*cpuProf, *memProf)
		if err != nil {
			return err
		}
		soak()
		return stop()
	}
	for _, p := range []struct {
		flag string
		v    float64
	}{{"loss", *loss}, {"dup", *dup}, {"silent", *silent}} {
		if !(p.v >= 0 && p.v <= 1) { // written so NaN fails too
			return fail(fmt.Errorf("-%s %v is not a probability in [0,1]", p.flag, p.v))
		}
	}
	// Both soaks would quietly replace a size below one with its default.
	for _, p := range []struct {
		flag string
		v    any
		ok   bool
	}{
		{"seeds", *seeds, *seeds >= 1}, {"nodes", *nodes, *nodes >= 1}, {"sats", *sats, *sats >= 1},
		{"broadcasts", *bcasts, *bcasts >= 1}, {"span", *span, *span > 0}, {"bound", *bound, *bound > 0},
	} {
		if !p.ok {
			return fail(fmt.Errorf("-%s %v is not positive", p.flag, p.v))
		}
	}

	mode := modeSoak
	if *reconcileMode {
		mode = modeReconcile
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var refused []string
	fs.VisitAll(func(f *flag.Flag) { // VisitAll: sorted by name, so the message is stable
		if why, ok := unsupported[mode][f.Name]; ok && set[f.Name] {
			refused = append(refused, fmt.Sprintf("-%s is not available with %s (%s)", f.Name, mode, why))
		}
	})
	if len(refused) > 0 {
		return fail(fmt.Errorf("%s", strings.Join(refused, "; ")))
	}

	var seedResults []chaos.SeedResult
	var critRep func(topK int) *critpath.Report
	violations := 0
	switch mode {
	case modeReconcile:
		// -target counts in-service satellites out of the pool, which the
		// soak would otherwise quietly clamp or replace with its default.
		pool := chaos.ReconcileSatellites
		if set["sats"] {
			pool = *sats
		}
		if *target < 0 || *target > pool {
			return fail(fmt.Errorf("-target %d is not in [0,%d], the satellite pool (0 selects the default)", *target, pool))
		}
		// The reconcile soak has its own calibrated defaults (more
		// satellites, a shorter span); only flags the user actually set
		// override them.
		rcfg := chaos.ReconcileConfig{Target: *target}
		if set["seeds"] {
			rcfg.Seeds = *seeds
		}
		if set["seed"] {
			rcfg.BaseSeed = *base
		}
		if set["nodes"] {
			rcfg.Computes = *nodes
		}
		if set["sats"] {
			rcfg.Satellites = *sats
		}
		if set["span"] {
			rcfg.Span = *span
		}
		if set["broadcasts"] {
			rcfg.Broadcasts = *bcasts
		}
		if set["bound"] {
			rcfg.Bound = *bound
		}
		if set["loss"] {
			rcfg.LossProb = *loss
		}
		if set["dup"] {
			rcfg.DupProb = *dup
		}
		if *specPath != "" {
			f, err := os.Open(*specPath)
			if err != nil {
				return fail(err)
			}
			sched, err := reconcile.ParseSchedule(f)
			f.Close()
			if err != nil {
				return fail(fmt.Errorf("%s: %v", *specPath, err))
			}
			rcfg.Initial = sched.Initial
			rcfg.Mutations = sched.Mutations
		}
		var rep *chaos.ReconcileReport
		if err := profiled(func() { rep = chaos.ReconcileSoak(rcfg) }); err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, rep.String())
		violations = rep.Violations()

	default:
		cfg.Seeds = *seeds
		cfg.BaseSeed = *base
		cfg.Computes = *nodes
		cfg.Satellites = *sats
		cfg.Span = *span
		cfg.Broadcasts = *bcasts
		cfg.Bound = *bound
		cfg.LossProb = *loss
		cfg.DupProb = *dup
		cfg.SilentFraction = *silent
		cfg.Trace = *tracePath != "" || *critPath != ""
		var rep *chaos.Report
		if err := profiled(func() { rep = chaos.Soak(cfg) }); err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, rep.String())
		seedResults, critRep, violations = rep.Seeds, rep.CritpathReport, rep.Violations()
	}

	if *critPath != "" {
		rep := critRep(5)
		if err := obs.WriteFile(*critPath, rep.WriteText); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "critpath: %d seed(s) -> %s\n", rep.Sources, *critPath)
	}
	if *tracePath != "" {
		procs := traceProcesses(seedResults)
		if err := obs.WriteFile(*tracePath, func(w io.Writer) error { return obs.WriteChrome(w, procs...) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace: %d seeds -> %s\n", len(seedResults), *tracePath)
	}
	if *metrics {
		for _, s := range seedResults {
			fmt.Fprintf(stdout, "metrics seed %d:\n", s.Seed)
			s.Metrics.WriteText(stdout)
		}
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// traceProcesses lays the seeds out as Chrome trace processes so Perfetto
// shows the soak side by side: one process per seed, pid = seed. Same
// flags → byte-identical file.
func traceProcesses(seeds []chaos.SeedResult) []obs.Process {
	var procs []obs.Process
	for _, s := range seeds {
		procs = append(procs, obs.Process{PID: int(s.Seed), Name: fmt.Sprintf("chaossoak seed %d", s.Seed), T: s.Trace})
	}
	return procs
}
