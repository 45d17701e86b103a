// Package controller is the complete ESlurm control daemon: the layer a
// deployment actually runs. It composes the subsystems the rest of this
// repository provides —
//
//   - jobs: the job table, lifecycle state machine and multifactor
//     priority,
//   - alloc: topology-aware node selection,
//   - sched: the EASY-backfill planner (sched.Plan), the kill rule and the
//     walltime predictors, the estimation framework among them,
//   - core: the satellite-relayed master for launch/termination
//     broadcasts,
//
// — into an event-driven scheduling loop with priority ordering and EASY
// backfill. Jobs submitted through Submit flow PENDING → CONFIGURING →
// RUNNING → COMPLETING → COMPLETED (or TIMEOUT at their kill limit),
// with every launch and termination carried by real satellite broadcasts
// on the simulated cluster.
//
// Determinism: the daemon is driven entirely by events on one simnet
// engine, schedules partitions in configuration order and breaks
// priority ties by job ID, so a given trace and seed replay to the
// identical schedule.
package controller

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/jobs"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/trace"
)

// schedInterval is the periodic scheduling-pass cadence; event-driven
// passes also run on every submission and completion.
const schedInterval = 30 * time.Second

// Config parameterizes the controller.
type Config struct {
	// Predictor supplies the walltime each job is planned with and hears
	// every finished job; nil means sched.UserWalltimes. Pass
	// sched.FrameworkWalltimes to plan with the estimation framework.
	Predictor sched.WalltimePredictor
	// KillAtLimit kills a job at sched.KillLimit of its planned walltime.
	KillAtLimit bool
	// Partitions carves the cluster into named scheduling domains; empty
	// means one default "batch" partition over every compute node.
	Partitions []Partition
}

// JobSpec describes one submission.
type JobSpec struct {
	Name string
	User string
	// Partition routes the job; empty uses the default partition.
	Partition    string
	Nodes        int
	Cores        int
	UserEstimate time.Duration
	// Runtime is the job's (simulated) true runtime.
	Runtime time.Duration
}

// Metrics accumulates controller-level outcomes.
type Metrics struct {
	Submitted, Started, Completed, TimedOut, Rejected int
	WaitSum                                           time.Duration
	// SpawnSum accumulates launch-broadcast latencies.
	SpawnSum  time.Duration
	SpawnReps int
}

// AvgWait returns the mean queue wait of started jobs.
func (m *Metrics) AvgWait() time.Duration {
	if m.Started == 0 {
		return 0
	}
	return m.WaitSum / time.Duration(m.Started)
}

// AvgSpawn returns the mean launch-broadcast latency.
func (m *Metrics) AvgSpawn() time.Duration {
	if m.SpawnReps == 0 {
		return 0
	}
	return m.SpawnSum / time.Duration(m.SpawnReps)
}

// pendingInfo carries scheduler-side state for a queued job.
type pendingInfo struct {
	spec     JobSpec
	job      *jobs.Job
	part     *partitionState
	walltime time.Duration
}

type runningInfo struct {
	job      *jobs.Job
	nodes    []cluster.NodeID
	limitEnd time.Duration
}

// Controller is the assembled daemon.
type Controller struct {
	Engine   *simnet.Engine
	Cluster  *cluster.Cluster
	Master   *core.Master
	Registry *jobs.Registry

	cfg         Config
	metrics     Metrics
	pending     map[jobs.ID]*pendingInfo
	partitions  []*partitionState // in configuration order
	defaultPart *partitionState
	ticker      *simnet.Ticker
}

// New assembles a controller over a cluster with the given master. Each
// partition gets a topology-aware allocator over its nodes.
func New(c *cluster.Cluster, m *core.Master, cfg Config) (*Controller, error) {
	if cfg.Predictor == nil {
		cfg.Predictor = sched.UserWalltimes{}
	}
	ctl := &Controller{
		Engine:   c.Engine,
		Cluster:  c,
		Master:   m,
		Registry: jobs.NewRegistry(),
		cfg:      cfg,
		pending:  make(map[jobs.ID]*pendingInfo),
	}
	if err := ctl.buildPartitions(cfg.Partitions); err != nil {
		return nil, err
	}
	return ctl, nil
}

// Start boots the master daemon and the periodic scheduling pass.
func (ctl *Controller) Start() {
	ctl.Master.Start()
	ctl.ticker = ctl.Engine.Every(schedInterval, ctl.schedule)
}

// Stop halts periodic activity.
func (ctl *Controller) Stop() {
	if ctl.ticker != nil {
		ctl.ticker.Stop()
	}
	ctl.Master.Stop()
}

// Metrics returns a copy of the accumulated outcomes.
func (ctl *Controller) Metrics() Metrics { return ctl.metrics }

// QueueDepth returns the number of pending jobs.
func (ctl *Controller) QueueDepth() int { return len(ctl.pending) }

// RunningCount returns the number of running jobs.
func (ctl *Controller) RunningCount() int {
	n := 0
	for _, ps := range ctl.partitions {
		n += len(ps.running)
	}
	return n
}

// Submit enqueues a job. Invalid requests (oversized, unknown partition,
// beyond the partition's MaxTime) are rejected immediately, as a real RM
// rejects them at submit time.
func (ctl *Controller) Submit(spec JobSpec) (jobs.ID, error) {
	if spec.Nodes <= 0 {
		ctl.metrics.Rejected++
		return 0, fmt.Errorf("controller: job needs a positive node count")
	}
	ps, err := ctl.resolvePartition(&spec)
	if err != nil {
		ctl.metrics.Rejected++
		return 0, err
	}
	now := ctl.Engine.Now()
	j := ctl.Registry.Submit(spec.Name, spec.User, ps.def.Name, spec.Nodes, spec.Cores, spec.UserEstimate, now)
	ctl.metrics.Submitted++

	wall := spec.UserEstimate
	tj := specToTraceJob(spec, now)
	if p := ctl.cfg.Predictor.Walltime(&tj); p > 0 {
		wall = p
	}
	if wall <= 0 {
		wall = 24 * time.Hour
	}
	if ps.def.MaxTime > 0 && wall > ps.def.MaxTime {
		wall = ps.def.MaxTime
	}
	ctl.pending[j.ID] = &pendingInfo{spec: spec, job: j, part: ps, walltime: wall}
	ctl.schedule()
	return j.ID, nil
}

func specToTraceJob(spec JobSpec, now time.Duration) trace.Job {
	return trace.Job{
		Name: spec.Name, User: spec.User, Nodes: spec.Nodes, Cores: spec.Cores,
		Submit: now, UserEstimate: spec.UserEstimate, Runtime: spec.Runtime,
	}
}

// schedule runs one priority + EASY-backfill pass per partition, in
// configuration order: partitions are independent scheduling domains.
func (ctl *Controller) schedule() {
	now := ctl.Engine.Now()
	order := ctl.Registry.Pending(now)
	if len(order) == 0 {
		return
	}
	for _, ps := range ctl.partitions {
		ctl.schedulePartition(ps, order, now)
	}
}

// schedulePartition hands the partition's queue, in priority order, to
// sched.Plan and starts what it picks.
func (ctl *Controller) schedulePartition(ps *partitionState, order []*jobs.Job, now time.Duration) {
	var queue []*pendingInfo
	var reqs []sched.Request
	for _, j := range order {
		if info := ctl.pending[j.ID]; info != nil && info.part == ps {
			queue = append(queue, info)
			reqs = append(reqs, sched.Request{Nodes: info.spec.Nodes, Span: info.walltime})
		}
	}
	if len(queue) == 0 {
		return
	}
	rels := make([]sched.Release, len(ps.running))
	for i, r := range ps.running {
		rels[i] = sched.Release{End: r.limitEnd, Nodes: len(r.nodes)}
	}
	for _, i := range sched.Plan(sched.Backfill, now, ps.allocator.FreeCount(), rels, reqs) {
		ctl.start(queue[i])
	}
}

// transition applies one lifecycle step. An illegal step is a controller
// bug.
func (ctl *Controller) transition(j *jobs.Job, to jobs.State) {
	if err := ctl.Registry.Transition(j, to, ctl.Engine.Now()); err != nil {
		panic(err)
	}
}

// start allocates nodes and drives the job through its lifecycle.
func (ctl *Controller) start(info *pendingInfo) {
	ps, j := info.part, info.job
	nodes, ok := ps.allocator.Alloc(info.spec.Nodes)
	if !ok {
		panic(fmt.Sprintf("controller: plan started job %d on %d nodes, %d free", j.ID, info.spec.Nodes, ps.allocator.FreeCount()))
	}
	delete(ctl.pending, j.ID)
	ctl.transition(j, jobs.Configuring)
	ctl.metrics.Started++
	ctl.metrics.WaitSum += ctl.Engine.Now() - j.SubmitAt

	run := &runningInfo{job: j, nodes: nodes, limitEnd: ctl.Engine.Now() + info.walltime}
	ps.running = append(ps.running, run)

	ctl.Master.LoadJob(nodes, func(r comm.Result) {
		ctl.metrics.SpawnSum += r.DeliveredElapsed
		ctl.metrics.SpawnReps++
		ctl.transition(j, jobs.Running)

		runtime, end := info.spec.Runtime, jobs.Completed
		if limit := sched.KillLimit(info.walltime, info.spec.UserEstimate); ctl.cfg.KillAtLimit && limit < runtime {
			runtime, end = limit, jobs.Timeout
		}
		ctl.Engine.After(runtime, func() {
			ctl.transition(j, jobs.Completing)
			ctl.Master.TerminateJob(nodes, func(comm.Result) {
				ctl.transition(j, end)
				if end == jobs.Timeout {
					ctl.metrics.TimedOut++
				} else {
					ctl.metrics.Completed++
				}
				ps.remove(run)
				ps.allocator.Free(nodes)
				// Feed the predictor with the observed outcome.
				tj := specToTraceJob(info.spec, j.SubmitAt)
				tj.Runtime = runtime
				ctl.cfg.Predictor.JobDone(&tj)
				ctl.schedule()
			})
		})
	})
}
