// Package sched is the job-scheduling simulator behind the Fig. 10
// evaluation: an event-driven cluster scheduler replaying workload traces
// under FCFS or EASY backfill, with pluggable walltime estimation (user
// estimates vs the ESlurm estimation framework), per-RM job
// load/termination overheads, walltime kills with resubmission, and a
// master-crash model for centralized RMs at scale (§II-B: the production
// Slurm crashed every ~42 h with ~90 min reboots).
//
// Metrics follow Section VII-D: system utilization (node-hours running /
// total elapsed node-hours), average waiting time, and average bounded
// slowdown (Eq. 6 with τ = 10 s).
//
// Determinism: each Run owns a private simnet engine seeded from
// Config.Seed; crash timing draws from a labeled RNG stream and every
// scheduling pass fires as an engine event, so a replay of the same trace
// and config reproduces the metrics exactly.
package sched

import (
	"sort"
	"time"

	"eslurm/internal/estimate"
	"eslurm/internal/obs"
	"eslurm/internal/simnet"
	"eslurm/internal/stats"
	"eslurm/internal/trace"
)

// Policy selects the queueing discipline.
type Policy int

const (
	// FCFS starts jobs strictly in queue order.
	FCFS Policy = iota
	// Backfill is EASY backfilling: the queue head gets a reservation and
	// later jobs may jump ahead if they cannot delay it (the algorithm all
	// RMs use in the Fig. 10 comparison).
	Backfill
)

// WalltimePredictor supplies the walltime limit the scheduler plans with.
// estimate.Framework and every estimate.Estimator satisfy the shape via
// the adapters below.
type WalltimePredictor interface {
	// Walltime returns the limit for a newly submitted job.
	Walltime(j *trace.Job) time.Duration
	// JobDone reports a finished job and its actual runtime.
	JobDone(j *trace.Job)
}

// UserWalltimes plans with the user-supplied estimates (every baseline RM).
type UserWalltimes struct{}

// Walltime returns the user's request.
func (UserWalltimes) Walltime(j *trace.Job) time.Duration { return j.UserEstimate }

// JobDone is a no-op.
func (UserWalltimes) JobDone(*trace.Job) {}

// Overhead gives the RM-imposed job load and termination latencies for a
// job of a given node count — measured from the rm package's broadcast
// models and fed in as a lookup so trace replay stays fast.
type Overhead func(nodes int) (load, term time.Duration)

// Config parameterizes one scheduling run.
type Config struct {
	// Nodes is the cluster's compute-node count.
	Nodes int
	// Policy defaults to Backfill.
	Policy Policy
	// Predictor defaults to UserWalltimes.
	Predictor WalltimePredictor
	// Overhead defaults to zero overhead.
	Overhead Overhead
	// KillAtLimit enforces walltime limits: a job whose limit is below its
	// actual runtime is killed at the limit and resubmitted once with a
	// doubled request (the failure-and-reschedule cost of underestimation,
	// §V-B).
	KillAtLimit bool
	// CrashMTBF, when positive, takes the whole RM down on this mean
	// period; no job starts during CrashDowntime (default 90 min). Models
	// the centralized-master crashes observed in production (§II-B).
	CrashMTBF     time.Duration
	CrashDowntime time.Duration
	// UtilWindow, when positive, measures utilization over this fixed
	// horizon from trace start (the production observation window) rather
	// than over the replay's makespan: work an RM fails to start inside
	// the window does not count, which is how a slow or crashing master
	// depresses production utilization.
	UtilWindow time.Duration
	// Seed drives crash timing.
	Seed int64
	// OnEngine, when set, observes the run's engine right after
	// construction — before any event is scheduled — so callers can enable
	// tracing or read the metrics registry (counters sched.submitted,
	// sched.started, sched.completed, sched.killed, sched.crashes).
	OnEngine func(*simnet.Engine)
}

// Result carries the Fig. 10 metrics for one run.
type Result struct {
	// Utilization is used node-hours over total elapsed node-hours.
	Utilization float64
	// AvgWait is the mean queue wait.
	AvgWait time.Duration
	// P95Wait is the 95th-percentile queue wait — means hide the tail
	// that users actually complain about.
	P95Wait time.Duration
	// AvgBoundedSlowdown is Eq. 6 averaged over completed jobs (τ = 10 s).
	AvgBoundedSlowdown float64
	// MaxBoundedSlowdown is the worst single job's bounded slowdown.
	MaxBoundedSlowdown float64
	// Completed, Killed count job outcomes; Killed jobs were resubmitted.
	Completed, Killed int
	// Makespan is the span from first submission to last completion.
	Makespan time.Duration
}

const slowdownTau = 10 * time.Second

type queuedJob struct {
	job trace.Job
	// killLimit is the limit the job is actually killed at (KillLimit).
	killLimit time.Duration
	// span is load + planned walltime + term: how long a start now holds
	// the nodes in the plan.
	span     time.Duration
	enqueued time.Duration
	resubmit bool
}

// KillLimit is the walltime a job is killed at. The planned walltime
// steers scheduling, but a job is never killed before its own request: a
// model estimate is enforced only where it exceeds the request (Tsafrir
// et al.; the framework's AEA gate plays the same safety role). A limit
// below the runtime costs a kill and resubmission, the failure-and-
// reschedule penalty the slack α suppresses (§V-B).
func KillLimit(planned, requested time.Duration) time.Duration {
	if requested > planned {
		return requested
	}
	return planned
}

// Release is a running job as the planner sees it: when its walltime
// limit ends and how many nodes come back then.
type Release struct {
	End   time.Duration
	Nodes int
}

// Request is a queued job as the planner sees it: its node count and how
// long a start now would hold them, RM overhead included.
type Request struct {
	Nodes int
	Span  time.Duration
}

// Plan is one scheduling pass at now, with free idle nodes, the running
// jobs' releases and the queue in priority order. It returns the indexes
// of the queue entries to start now, in start order. Both policies start
// the queue in order while its head fits. Backfill then reserves nodes for
// the blocked head at the shadow time, the earliest planned release that
// frees enough, and starts a later entry that fits now if it ends by the
// shadow time or fits in the nodes the head leaves spare at it. Every
// release at the shadow time counts toward those spare nodes, so the plan
// does not depend on the order of running.
func Plan(policy Policy, now time.Duration, free int, running []Release, queue []Request) []int {
	var start []int
	head := 0
	for ; head < len(queue) && queue[head].Nodes <= free; head++ {
		free -= queue[head].Nodes
		start = append(start, head)
	}
	if head == len(queue) || policy == FCFS {
		return start
	}
	rels := append([]Release(nil), running...)
	for _, i := range start {
		rels = append(rels, Release{End: now + queue[i].Span, Nodes: queue[i].Nodes})
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].End < rels[j].End })
	// A head that can never fit is rejected at submit; the far shadow keeps
	// the plan safe anyway.
	shadow, extra := now+365*24*time.Hour, 0
	avail := free
	for i, r := range rels {
		avail += r.Nodes
		if avail >= queue[head].Nodes && (i+1 == len(rels) || rels[i+1].End > r.End) {
			shadow, extra = r.End, avail-queue[head].Nodes
			break
		}
	}
	for i := head + 1; i < len(queue); i++ {
		q := queue[i]
		if q.Nodes > free || (now+q.Span > shadow && q.Nodes > extra) {
			continue
		}
		start = append(start, i)
		free -= q.Nodes
		if q.Nodes <= extra {
			extra -= q.Nodes
		}
	}
	return start
}

// Run replays jobs (which must be sorted by Submit) through the scheduler.
func Run(jobs []trace.Job, cfg Config) Result {
	if cfg.Nodes <= 0 {
		panic("sched: Config.Nodes must be positive")
	}
	if cfg.Predictor == nil {
		cfg.Predictor = UserWalltimes{}
	}
	if cfg.Overhead == nil {
		cfg.Overhead = func(int) (time.Duration, time.Duration) { return 0, 0 }
	}
	if cfg.CrashDowntime == 0 {
		cfg.CrashDowntime = 90 * time.Minute
	}

	e := simnet.NewEngine(cfg.Seed + 7)
	if cfg.OnEngine != nil {
		cfg.OnEngine(e)
	}
	s := &state{
		cfg:    cfg,
		engine: e,
		free:   cfg.Nodes,
		in:     newSchedInstruments(e.Metrics()),
	}

	var firstSubmit, lastEnd time.Duration
	if len(jobs) > 0 {
		firstSubmit = jobs[0].Submit
	}
	for i := range jobs {
		j := jobs[i]
		if j.Nodes > cfg.Nodes {
			continue // cannot ever fit; real RMs reject at submit
		}
		s.outstanding++
		e.Schedule(j.Submit, func() { s.submit(j, false) })
	}

	// Crash process: the chain re-arms itself only while work remains, so
	// the event heap drains once the trace is finished.
	if cfg.CrashMTBF > 0 && s.outstanding > 0 {
		rng := e.Rand("sched/crash")
		var crash func()
		crash = func() {
			if s.outstanding == 0 {
				return
			}
			gap := time.Duration(rng.ExpFloat64() * float64(cfg.CrashMTBF))
			e.After(gap, func() {
				if s.outstanding == 0 {
					return
				}
				s.down = true
				s.in.crashes.Inc()
				e.Tracer().Instant("sched.crash", 0,
					obs.Int64("downtime_ns", int64(cfg.CrashDowntime)))
				e.After(cfg.CrashDowntime, func() {
					s.down = false
					s.schedule()
					crash()
				})
			})
		}
		crash()
	}
	e.Run()

	lastEnd = s.lastCompletion
	res := Result{Completed: s.completed, Killed: s.killed, Makespan: lastEnd - firstSubmit}
	if s.completed > 0 {
		res.AvgWait = time.Duration(int64(s.waitSum) / int64(s.completed))
		res.AvgBoundedSlowdown = s.slowdownSum / float64(s.completed)
		res.P95Wait = time.Duration(s.waits.Percentile(95) * float64(time.Second))
		res.MaxBoundedSlowdown = s.slowdowns.Max()
	}
	if cfg.UtilWindow > 0 {
		res.Utilization = s.nodeSeconds / (float64(cfg.Nodes) * cfg.UtilWindow.Seconds())
	} else if res.Makespan > 0 {
		res.Utilization = s.nodeSeconds / (float64(cfg.Nodes) * res.Makespan.Seconds())
	}
	return res
}

// schedInstruments are the scheduler's registry-backed counters; always on
// (the registry is plain int64 bumps), unlike spans which need tracing
// enabled.
type schedInstruments struct {
	submitted, started, completed, killed, crashes *obs.Counter
}

func newSchedInstruments(m *obs.Registry) schedInstruments {
	return schedInstruments{
		submitted: m.Counter("sched.submitted"),
		started:   m.Counter("sched.started"),
		completed: m.Counter("sched.completed"),
		killed:    m.Counter("sched.killed"),
		crashes:   m.Counter("sched.crashes"),
	}
}

type state struct {
	cfg    Config
	engine *simnet.Engine
	in     schedInstruments

	free    int
	running []Release
	queue   []queuedJob
	down    bool

	completed, killed int
	outstanding       int
	waitSum           time.Duration
	slowdownSum       float64
	waits             stats.Summary
	slowdowns         stats.Summary
	nodeSeconds       float64
	lastCompletion    time.Duration
}

func (s *state) submit(j trace.Job, resubmit bool) {
	s.in.submitted.Inc()
	wt := j.UserEstimate
	if !resubmit {
		// Walltime inference is a decision point worth a span of its own:
		// it is where the estimation framework (or the user estimate)
		// shapes everything the backfill planner does with this job.
		tr := s.engine.Tracer()
		sp := tr.Start("predict.walltime", 0, obs.Int("job", j.ID))
		p := s.cfg.Predictor.Walltime(&j)
		tr.SetAttrInt(sp, "walltime_ns", int(p))
		tr.End(sp)
		if p > 0 {
			wt = p
		}
	} else {
		// Resubmission after a kill: the user doubles the request.
		wt = j.UserEstimate * 2
	}
	load, term := s.cfg.Overhead(j.Nodes)
	s.queue = append(s.queue, queuedJob{
		job: j, killLimit: KillLimit(wt, j.UserEstimate),
		span: load + wt + term, enqueued: s.engine.Now(), resubmit: resubmit,
	})
	s.schedule()
}

// start launches a queued job now.
func (s *state) start(q queuedJob) {
	now := s.engine.Now()
	load, term := s.cfg.Overhead(q.job.Nodes)
	runtime := q.job.Runtime
	killed := false
	if s.cfg.KillAtLimit && q.killLimit < runtime {
		runtime = q.killLimit
		killed = true
	}
	occupation := load + runtime + term

	s.in.started.Inc()
	tr := s.engine.Tracer()
	span := tr.Start("sched.job", 0,
		obs.Int("job", q.job.ID), obs.Int("nodes", q.job.Nodes),
		obs.Int64("wait_ns", int64(now-q.enqueued)))

	s.free -= q.job.Nodes
	rj := Release{End: now + q.span, Nodes: q.job.Nodes}
	s.running = append(s.running, rj)

	wait := now - q.enqueued
	s.engine.After(occupation, func() {
		s.free += q.job.Nodes
		for i := range s.running {
			if s.running[i] == rj {
				s.running = append(s.running[:i], s.running[i+1:]...)
				break
			}
		}
		// Utilization counts node-hours spent *running* (the paper's
		// definition); RM load/termination overhead holds the nodes
		// without running the job, so it dilutes utilization. With a
		// UtilWindow, only the portion of the run inside the window
		// counts.
		runStart := now + load
		runEnd := runStart + runtime
		if s.cfg.UtilWindow > 0 {
			if runStart > s.cfg.UtilWindow {
				runEnd = runStart // fully outside
			} else if runEnd > s.cfg.UtilWindow {
				runEnd = s.cfg.UtilWindow
			}
		}
		if runEnd > runStart {
			s.nodeSeconds += float64(q.job.Nodes) * (runEnd - runStart).Seconds()
		}
		end := s.engine.Now()
		if end > s.lastCompletion {
			s.lastCompletion = end
		}
		if killed {
			tr.SetAttr(span, "outcome", "killed")
		} else {
			tr.SetAttr(span, "outcome", "completed")
		}
		tr.End(span)
		if killed {
			s.killed++
			s.in.killed.Inc()
			if !q.resubmit {
				// One retry with a doubled request.
				s.submit(q.job, true)
			} else {
				s.outstanding--
			}
		} else {
			s.outstanding--
			s.completed++
			s.in.completed.Inc()
			s.waitSum += wait
			tr := q.job.Runtime
			if tr < slowdownTau {
				tr = slowdownTau
			}
			sd := (wait + q.job.Runtime).Seconds() / tr.Seconds()
			if sd < 1 {
				sd = 1
			}
			s.slowdownSum += sd
			s.waits.Add(wait.Seconds())
			s.slowdowns.Add(sd)
			s.cfg.Predictor.JobDone(&q.job)
		}
		s.schedule()
	})
}

// schedule runs one scheduling pass (FCFS or EASY backfill).
func (s *state) schedule() {
	if s.down || len(s.queue) == 0 {
		return
	}
	reqs := make([]Request, len(s.queue))
	for i, q := range s.queue {
		reqs[i] = Request{Nodes: q.job.Nodes, Span: q.span}
	}
	picked := Plan(s.cfg.Policy, s.engine.Now(), s.free, s.running, reqs)
	kept, next := s.queue[:0], 0
	for i, q := range s.queue {
		if next < len(picked) && picked[next] == i {
			next++
			s.start(q)
			continue
		}
		kept = append(kept, q)
	}
	s.queue = kept
}

// FrameworkWalltimes plans with the ESlurm estimation framework: the
// model estimate when its cluster passes the AEA gate, the user estimate
// otherwise (Section V-B), feeding completions back to the record module.
type FrameworkWalltimes struct{ F *estimate.Framework }

// Walltime implements WalltimePredictor.
func (f FrameworkWalltimes) Walltime(j *trace.Job) time.Duration {
	return f.F.Predict(j).Used
}

// JobDone implements WalltimePredictor.
func (f FrameworkWalltimes) JobDone(j *trace.Job) { f.F.Complete(j) }
