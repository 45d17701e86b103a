// Command eslurmctl boots a simulated cluster under the ESlurm resource
// manager (or any of the baseline RMs) and runs a workload against it,
// reporting scheduling metrics and master/satellite resource usage — a
// one-command tour of the whole system.
//
// Usage:
//
//	eslurmctl -nodes 4096 -satellites 3 -jobs 2000 -hours 6
//	eslurmctl -rm slurm -nodes 4096 -jobs 2000
//	eslurmctl -rm eslurm -failures 0.02 -verbose
//	eslurmctl -spec spec.json -satellites 6
//
// With -spec the ESlurm master runs under the reconciler: the JSON file's
// initial spec (satellite target, cordon list, ESlurm parameters) is
// enforced every reconcile round and its schedule of timed mutations is
// replayed in simulated time; the run ends with a reconcile summary.
// An eslurm.conf with SatelliteTarget set wires the reconciler the same
// way without a schedule.
//
// -nodes, -jobs and -hours below 1, -satellites below 0 and -failures
// outside [0,1] are usage errors (exit 2); a file that cannot be read or
// parsed, or an unknown -rm, exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/config"
	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/experiment"
	"eslurm/internal/monitor"
	"eslurm/internal/predict"
	"eslurm/internal/reconcile"
	"eslurm/internal/rm"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams as parameters, so the tests
// drive the whole CLI in-process; it returns the exit status: 0 on
// success, 1 on a bad input file or RM name, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eslurmctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rmNames := "eslurm"
	for _, prof := range rm.Profiles() {
		rmNames += ", " + strings.ToLower(prof.Name)
	}
	var (
		rmName     = fs.String("rm", "eslurm", "resource manager: "+rmNames)
		confPath   = fs.String("conf", "", "eslurm.conf file; overrides -nodes/-satellites and the ESlurm parameters")
		nodes      = fs.Int("nodes", 1024, "compute-node count")
		satellites = fs.Int("satellites", 0, "satellite count (0 = one per 5K nodes, min 2; ESlurm only)")
		jobs       = fs.Int("jobs", 2000, "jobs to replay")
		hours      = fs.Int("hours", 4, "virtual hours of RM runtime observation")
		failures   = fs.Float64("failures", 0.01, "fraction of nodes failing during the run")
		seed       = fs.Int64("seed", 1, "simulation seed")
		specPath   = fs.String("spec", "", "reconcile spec/schedule JSON; runs the ESlurm master under the reconciler")
		verbose    = fs.Bool("verbose", false, "print per-phase detail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, p := range []struct {
		flag string
		v    any
		ok   bool
		is   string // what the value is when it is not ok
	}{
		{"nodes", *nodes, *nodes >= 1, "not positive"},
		{"jobs", *jobs, *jobs >= 1, "not positive"},
		{"hours", *hours, *hours >= 1, "not positive"},
		{"satellites", *satellites, *satellites >= 0, "negative"},
		{"failures", *failures, *failures >= 0 && *failures <= 1, "not a fraction in [0,1]"}, // written so NaN fails too
	} {
		if !p.ok {
			fmt.Fprintf(stderr, "eslurmctl: -%s %v is %s\n", p.flag, p.v, p.is)
			return 2
		}
	}

	coreCfg := core.DefaultConfig()
	fwCfg := estimate.FrameworkConfig{}
	var parsedConf *config.Config
	if *confPath != "" {
		f, err := os.Open(*confPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		parsed, err := config.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if n := parsed.ComputeCount(); n > 0 {
			*nodes = n
		}
		if len(parsed.SatelliteNodes) > 0 {
			*satellites = len(parsed.SatelliteNodes)
		}
		coreCfg = parsed.CoreConfig()
		fwCfg = parsed.FrameworkConfig()
		parsedConf = parsed
		fmt.Fprintf(stdout, "loaded %s: cluster %q, %d computes, %d satellites\n",
			*confPath, parsed.ClusterName, *nodes, *satellites)
	}

	sats := *satellites
	if sats == 0 {
		sats = 2 + *nodes/5120
	}

	// Phase 1: boot the RM on a simulated cluster with a failure
	// background and observe its resource footprint.
	e := simnet.NewEngine(*seed)
	c := cluster.New(e, cluster.Config{Computes: *nodes, Satellites: sats})
	sub := monitor.New(c, monitor.Config{DetectionProb: 0.85})

	// r is the RM under test; probe builds the same design on the fresh
	// clusters phase 3 probes for its scheduling overhead.
	var r rm.RM
	var probe func(c *cluster.Cluster) rm.RM
	var es *core.Master
	if *rmName == "eslurm" {
		es = core.NewMaster(c, coreCfg, predict.NewAlertDriven(e, sub, 0))
		r = es
		// The probe masters run this master's configuration (a -conf
		// TreeWidth or ReallocLimit reaches the scheduling overhead) with
		// an oracle predictor, like the Fig. 10 ESlurm rows.
		probe = func(c *cluster.Cluster) rm.RM { return core.NewMaster(c, coreCfg, predict.Oracle{Cluster: c}) }
	}
	for _, prof := range rm.Profiles() {
		if strings.ToLower(prof.Name) == *rmName {
			r = rm.NewCentralized(c, prof)
			probe = func(c *cluster.Cluster) rm.RM { return rm.NewCentralized(c, prof) }
		}
	}
	if r == nil {
		fmt.Fprintf(stderr, "unknown RM %q\n", *rmName)
		return 1
	}
	r.Start()

	// Under -spec (or an eslurm.conf with SatelliteTarget) the ESlurm
	// master runs beneath the reconciler, which enforces the desired
	// satellite census and replays the schedule's mutations in simulated
	// time.
	var rec *reconcile.Reconciler
	if es != nil {
		switch {
		case *specPath != "":
			f, err := os.Open(*specPath)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			sched2, err := reconcile.ParseSchedule(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "eslurmctl: %s: %v\n", *specPath, err)
				return 1
			}
			rec = reconcile.New(es, sched2.Initial, reconcile.Config{})
			rec.Start()
			rec.ScheduleMutations(sched2.Mutations)
			fmt.Fprintf(stdout, "reconciler: initial target %d satellites, %d scheduled mutations\n",
				rec.Spec().Satellites, len(sched2.Mutations))
		case parsedConf != nil && parsedConf.SatelliteTarget > 0:
			spec, opts, err := reconcile.FromConfig(parsedConf)
			if err != nil {
				fmt.Fprintf(stderr, "eslurmctl: %s: %v\n", *confPath, err)
				return 1
			}
			rec = reconcile.New(es, spec, opts)
			rec.Start()
			fmt.Fprintf(stdout, "reconciler: target %d satellites from %s\n", spec.Satellites, *confPath)
		}
	} else if *specPath != "" {
		fmt.Fprintf(stderr, "eslurmctl: -spec requires -rm eslurm (got %q)\n", *rmName)
		return 1
	}

	// Failure injection, announced to the monitoring network.
	span := time.Duration(*hours) * time.Hour
	rng := e.Rand("eslurmctl/failures")
	failCount := int(float64(*nodes) * *failures)
	for i := 0; i < failCount; i++ {
		node := c.Computes()[rng.Intn(*nodes)]
		at := time.Duration(rng.Int63n(int64(span)))
		sub.NoticeImpendingFailure(node, at)
		c.ScheduleFailure(node, at, 2*time.Hour)
	}

	// A light job flow to exercise the control plane.
	stop := false
	var drive func()
	drive = func() {
		e.After(time.Duration(60+rng.Intn(120))*time.Second, func() {
			if stop {
				return
			}
			size := 1 << rng.Intn(10)
			if size > *nodes/2 {
				size = *nodes / 2
			}
			jn := c.Computes()[:size]
			r.LoadJob(jn, func(comm.Result) {
				e.After(time.Duration(20+rng.Intn(300))*time.Second, func() {
					r.TerminateJob(jn, nil)
				})
			})
			drive()
		})
	}
	drive()
	e.RunUntil(span)
	stop = true

	// Demonstrative broadcast while the failure picture is fresh: with the
	// alert-driven predictor plus the master's suspect set, failed nodes
	// sit at FP-Tree leaves and healthy delivery stays in milliseconds.
	var demo comm.Result
	demoed := false
	if *verbose {
		if es != nil {
			es.Broadcast(c.Computes(), core.JobLoadMsgBytes, func(rr comm.Result) { demo = rr; demoed = true })
		}
	}

	if rec != nil {
		rec.Stop()
	}
	r.Stop()
	// Drain: the meter and the demo broadcast printed below accrue through it.
	e.RunUntil(span + 30*time.Minute)

	m := r.Meter()
	fmt.Fprintf(stdout, "=== %s on %d nodes (%d satellites), %v observed ===\n", r.Name(), *nodes, sats, span)
	fmt.Fprintf(stdout, "master: cpu=%v vmem=%.2fGB rss=%.1fMB sockets avg=%.1f peak=%d\n",
		m.CPUTime().Round(time.Millisecond),
		float64(m.VMem())/(1<<30), float64(m.RSS())/(1<<20),
		m.AvgSockets(e.Now()), m.PeakSockets())
	if es != nil {
		st := es.Stats()
		fmt.Fprintf(stdout, "broadcasts=%d subtasks=%d reallocations=%d takeovers=%d heartbeats=%d\n",
			st.Broadcasts, st.SubTasks, st.Reallocations, st.MasterTakeovers, st.HeartbeatSweeps)
		if *verbose {
			for i, id := range c.Satellites() {
				sm := c.Meter(id)
				sat := es.Pool.Get(id)
				fmt.Fprintf(stdout, "satellite %d: state=%v tasks=%d cpu=%v rss=%.1fMB\n",
					i+1, sat.State(), sat.TasksReceived,
					sm.CPUTime().Round(time.Millisecond), float64(sm.RSS())/(1<<20))
			}
		}
	}

	if rec != nil {
		st := rec.Status()
		fmt.Fprintf(stdout, "reconcile: rounds=%d actions=%d promotes=%d drains=%d (forced=%d) takeovers=%d breakers=%d specs=%d converged=%v\n",
			st.Rounds, st.Actions, st.Promotes, st.Drains, st.DrainsForced,
			st.Takeovers, st.BreakerOpens, st.SpecUpdates, st.Converged)
	}

	if demoed {
		fmt.Fprintf(stdout, "demo broadcast: delivered=%d unreachable=%d time=%v messages=%d\n",
			demo.Delivered, len(demo.Unreachable), demo.DeliveredElapsed.Round(time.Microsecond), demo.Messages)
	}

	// Phase 3: schedule a trace through this RM's measured overhead and
	// report the Fig. 10 metrics.
	cfg := trace.Tianhe2AConfig(*jobs)
	cfg.MaxNodes = *nodes
	tr := trace.Generate(cfg)
	overhead := experiment.OccupationProbeLookup(new(experiment.Env), probe, *nodes)
	scfg := sched.Config{Nodes: *nodes, Policy: sched.Backfill, KillAtLimit: true, Overhead: overhead, Seed: *seed}
	if es != nil {
		scfg.Predictor = sched.FrameworkWalltimes{F: estimate.NewFramework(fwCfg)}
	}
	res := sched.Run(tr.Jobs, scfg)
	fmt.Fprintf(stdout, "scheduling %d jobs: utilization=%.1f%% avg-wait=%v slowdown=%.1f completed=%d killed=%d\n",
		len(tr.Jobs), 100*res.Utilization, res.AvgWait.Round(time.Second),
		res.AvgBoundedSlowdown, res.Completed, res.Killed)
	if *verbose {
		load, term := overhead(*nodes)
		fmt.Fprintf(stdout, "probed overhead of a %d-node job: load=%v terminate=%v\n",
			*nodes, load.Round(time.Microsecond), term.Round(time.Microsecond))
	}
	if *verbose && es != nil {
		if fw, ok := scfg.Predictor.(sched.FrameworkWalltimes); ok {
			trusted, total := 0, 0
			for _, cs := range fw.F.ClusterStats() {
				total++
				if cs.Trusted {
					trusted++
				}
			}
			fmt.Fprintf(stdout, "estimator: %d generations, %d/%d clusters past the %.0f%% AEA gate\n",
				fw.F.Generations, trusted, total, 100*fw.F.Config().AEAGate)
		}
	}
	return 0
}
