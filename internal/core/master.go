// Package core implements the ESlurm master daemon — the paper's primary
// contribution (Section III): a hierarchical resource manager that keeps a
// single master with the global scheduling view but offloads all
// large-scale communication to a pool of satellite nodes, each of which
// relays messages to its slice of compute nodes over an FP-Tree.
//
// The master:
//
//   - splits every broadcast across N satellites per Eq. 1,
//   - maps sub-lists to satellites round-robin,
//   - reallocates a failed satellite's task to the next satellite in the
//     round-robin, at most Config.ReallocLimit times, after which the
//     master takes the task over itself (Section III-C),
//   - heartbeats satellites and compute nodes, driving the satellite state
//     machine of package satellite,
//   - tracks job and node state, charging its resource meter the way the
//     production slurmctld-derived daemon does.
//
// Determinism: every master action — dispatch, watchdog, reallocation,
// heartbeat sweep — runs as an event on the cluster's engine, so the same
// seed replays the identical broadcast schedule bit for bit; the obs
// spans and counters it records are passive and never feed back into the
// simulation.
package core

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/fptree"
	"eslurm/internal/obs"
	"eslurm/internal/predict"
	"eslurm/internal/proto"
	"eslurm/internal/satellite"
	"eslurm/internal/simnet"
)

// Message sizes in bytes. Task and reply sizes come from their proto
// encodings; these three are fixed. The job messages are the same bytes
// under every RM the experiments compare, and the broadcast figures send
// them too.
const (
	JobLoadMsgBytes = 4096
	JobTermMsgBytes = 1024
	// HeartbeatMsgBytes sizes a heartbeat, and the heartbeat-sized probe
	// broadcast of the satellite-count sweep.
	HeartbeatMsgBytes = 256
)

// Resource-model coefficients (see DESIGN.md "Resource accounting"):
// fixed calibration of the production daemons, not settings.
const (
	// The master daemon's base footprint and scheduling cost. ESlurm's
	// hallmark is that these stay small because the master only ever
	// talks to satellites.
	masterBaseVMem int64 = 1 << 30              // daemon image + arenas: <2 GB virtual (Fig. 7c)
	masterBaseRSS  int64 = 40 << 20             // ~60 MB real at 4K nodes (Fig. 7d)
	schedCPUPerJob       = 2 * time.Millisecond // scheduling-pass CPU per job event

	perNodeState int64 = 4 << 10  // bytes of master state per managed compute node
	perJobState  int64 = 16 << 10 // bytes of master state per active job

	// Satellite daemon memory model (Table VI, Fig. 9d–f): the satellite
	// runs a slurmd-derived daemon with a large virtual image; its
	// resident set grows with the largest sub-nodelist it has relayed.
	SatelliteBaseVMem   int64 = 10 << 30
	satelliteBaseRSS    int64 = 60 << 20
	satellitePerNodeRSS int64 = 24 << 10
	// satellitePerNodeProc is the satellite's per-participant processing
	// cost when it receives a task: FP-Tree construction is Θ(n)
	// (Section IV-D) and each relay message carries a sub-nodelist to
	// marshal. Fewer satellites ⇒ larger sub-lists ⇒ slower relays — one
	// side of the Fig. 11a trade-off.
	satellitePerNodeProc = 50 * time.Microsecond
	// masterPerTaskDispatch is the master's serialized cost to prepare
	// and emit one satellite task (authorization, sub-list slicing,
	// marshalling). More satellites ⇒ more tasks per broadcast — the
	// other side of the Fig. 11a trade-off.
	masterPerTaskDispatch = 1500 * time.Microsecond
	// masterPerSatState is master memory per configured satellite
	// (connection buffers + pool bookkeeping), the Table V growth.
	masterPerSatState int64 = 3 << 20
)

// Config parameterizes the ESlurm master.
type Config struct {
	// TreeWidth is w in Eq. 1 and the FP-Tree fan-out.
	TreeWidth int
	// ReallocLimit is the number of reallocation trails for a failed
	// broadcast task before the master takes over (paper default: 2).
	ReallocLimit int
	// HeartbeatInterval is the cadence of satellite + compute heartbeats.
	HeartbeatInterval time.Duration
	// TaskTimeout bounds how long the master waits for a satellite's
	// aggregated response before treating the task as failed.
	TaskTimeout time.Duration

	// DisableSuspectFeedback turns off the master's own unreachable-node
	// suspect set, leaving placement purely to the plugin predictor (used
	// by the §VII-A placement experiment to measure the monitoring
	// pipeline alone).
	DisableSuspectFeedback bool
}

// DefaultConfig returns the production configuration used in the
// experiments.
func DefaultConfig() Config {
	return Config{
		TreeWidth:         fptree.DefaultWidth,
		ReallocLimit:      2,
		HeartbeatInterval: 150 * time.Second,
		TaskTimeout:       120 * time.Second,
	}
}

// Stats counts master-level events for the experiment reports. The
// counts live in the engine's metrics registry (master.* counters);
// Stats is the back-compat snapshot view Master.Stats assembles from it.
type Stats struct {
	Broadcasts      int
	SubTasks        int
	Reallocations   int
	MasterTakeovers int
	HeartbeatSweeps int
	// PoolDrainedFallbacks counts master takeovers that happened because
	// the whole pool had drained to FAULT/DOWN (the graceful-degradation
	// path), a subset of MasterTakeovers.
	PoolDrainedFallbacks int
}

// masterInstruments caches the master's registry handles (one lookup at
// construction, field reads afterwards).
type masterInstruments struct {
	broadcasts       *obs.Counter
	subTasks         *obs.Counter
	reallocations    *obs.Counter
	takeovers        *obs.Counter
	sweeps           *obs.Counter
	drainedFallbacks *obs.Counter
}

func newMasterInstruments(m *obs.Registry) masterInstruments {
	return masterInstruments{
		broadcasts:       m.Counter("master.broadcasts"),
		subTasks:         m.Counter("master.subtasks"),
		reallocations:    m.Counter("master.reallocations"),
		takeovers:        m.Counter("master.takeovers"),
		sweeps:           m.Counter("master.heartbeat_sweeps"),
		drainedFallbacks: m.Counter("master.pool_drained_fallbacks"),
	}
}

// Master is the ESlurm control daemon.
type Master struct {
	Cluster   *cluster.Cluster
	Pool      *satellite.Pool
	Predictor predict.Predictor
	B         *comm.Broadcaster
	// Placement, when non-nil, accumulates FP-Tree leaf-placement
	// statistics across every satellite broadcast.
	Placement *comm.PlacementStats

	cfg    Config
	in     masterInstruments
	engine *simnet.Engine
	hb     *simnet.Ticker
	jobs   int
	// suspects are nodes recent broadcasts failed to reach; they are
	// treated as predicted-failed (over-prediction principle) until the
	// expiry, independent of the plugin predictor.
	suspects map[cluster.NodeID]time.Duration
}

// NewMaster wires an ESlurm master over a cluster. The predictor may be
// nil (no failure prediction: FP-Tree degenerates to a plain tree).
func NewMaster(c *cluster.Cluster, cfg Config, p predict.Predictor) *Master {
	if cfg.TreeWidth == 0 {
		cfg = DefaultConfig()
	}
	if p == nil {
		p = predict.Null{}
	}
	m := &Master{
		Cluster:   c,
		Pool:      satellite.NewPool(c.Engine, c.Satellites()),
		Predictor: p,
		B:         comm.NewBroadcaster(c),
		cfg:       cfg,
		in:        newMasterInstruments(c.Engine.Metrics()),
		engine:    c.Engine,
		suspects:  make(map[cluster.NodeID]time.Duration),
	}
	return m
}

// SuspectTTL is how long an unreachable node stays in the master's
// suspect set (and hence at FP-Tree leaves) after its last failed
// delivery.
const SuspectTTL = 30 * time.Minute

// markSuspects records nodes a broadcast could not reach.
func (m *Master) markSuspects(ids []cluster.NodeID) {
	if m.cfg.DisableSuspectFeedback {
		return
	}
	for _, id := range ids {
		m.suspects[id] = m.engine.Now() + SuspectTTL
	}
}

// Suspected reports whether the master currently treats the node as
// likely-failed from its own delivery evidence.
func (m *Master) Suspected(id cluster.NodeID) bool {
	exp, ok := m.suspects[id]
	if !ok {
		return false
	}
	if m.engine.Now() > exp {
		delete(m.suspects, id)
		return false
	}
	return true
}

// effectivePredictor returns the predictor FP-Tree construction consults:
// the plugin predictor merged with the master's own suspect set, unless
// suspect feedback is disabled by configuration.
func (m *Master) effectivePredictor() predict.Predictor {
	if m.cfg.DisableSuspectFeedback {
		return m.Predictor
	}
	return mergedPredictor{m}
}

// mergedPredictor merges the plugin predictor with the master's own
// suspect set.
type mergedPredictor struct{ m *Master }

// Predicted implements predict.Predictor.
func (p mergedPredictor) Predicted(id cluster.NodeID) bool {
	return p.m.Suspected(id) || p.m.Predictor.Predicted(id)
}

// Config returns the master's configuration.
func (m *Master) Config() Config { return m.cfg }

// Stats returns a snapshot of the master's event counters, assembled
// from the registry instruments (see masterInstruments).
func (m *Master) Stats() Stats {
	return Stats{
		Broadcasts:           int(m.in.broadcasts.Value()),
		SubTasks:             int(m.in.subTasks.Value()),
		Reallocations:        int(m.in.reallocations.Value()),
		MasterTakeovers:      int(m.in.takeovers.Value()),
		HeartbeatSweeps:      int(m.in.sweeps.Value()),
		PoolDrainedFallbacks: int(m.in.drainedFallbacks.Value()),
	}
}

// Meter returns the master daemon's resource meter.
func (m *Master) Meter() *cluster.ResourceMeter { return m.Cluster.Meter(m.Cluster.Master().ID) }

// Name identifies the RM in experiment output.
func (m *Master) Name() string { return "ESlurm" }

// Start boots the daemon: base memory is mapped, node state is built, all
// satellites are probed (promoting them to RUNNING), and the heartbeat
// service begins.
func (m *Master) Start() {
	mm := m.Meter()
	mm.AddVMem(masterBaseVMem)
	mm.AddRSS(masterBaseRSS)
	mm.AddVMem(int64(len(m.Cluster.Computes())) * perNodeState)
	mm.AddRSS(int64(len(m.Cluster.Computes())) * perNodeState / 8)
	for _, id := range m.Cluster.Satellites() {
		sm := m.Cluster.Meter(id)
		sm.AddVMem(SatelliteBaseVMem)
		sm.AddRSS(satelliteBaseRSS)
		// The master holds a long-lived control connection per satellite
		// and per-satellite pool state (Table V's mild growth with the
		// satellite count).
		mm.OpenSocket(m.engine.Now())
		mm.AddVMem(masterPerSatState)
		mm.AddRSS(masterPerSatState / 4)
	}
	m.probeSatellites()
	m.hb = m.engine.Every(m.cfg.HeartbeatInterval, m.heartbeatSweep)
}

// Stop halts the heartbeat service.
func (m *Master) Stop() {
	if m.hb != nil {
		m.hb.Stop()
	}
}

// probeSatellites heartbeats every satellite once, in pool order.
func (m *Master) probeSatellites() {
	for _, s := range m.Pool.All() {
		m.probe(s)
	}
}

// probe sends one heartbeat to a satellite and feeds the outcome to its
// state machine: a reachable satellite is promoted to RUNNING.
func (m *Master) probe(s *satellite.Satellite) {
	m.B.Send(m.Cluster.Master().ID, s.ID, HeartbeatMsgBytes, 0, func(ok bool) {
		if ok {
			m.Pool.Apply(s, satellite.EvHBSuccess)
		} else {
			m.Pool.Apply(s, satellite.EvHBFailure)
		}
	})
}

// SatelliteFanout implements Eq. 1: the number N of satellite nodes used
// to relay a broadcast to s participating nodes, given tree width w and
// pool size m.
func (m *Master) SatelliteFanout(s int) int {
	w := m.cfg.TreeWidth
	mm := m.Pool.Size()
	if mm == 0 {
		return 0
	}
	switch {
	case s <= w:
		return 1
	case s >= mm*w:
		return mm
	default:
		n := s / w
		if n < 1 {
			n = 1
		}
		if n > mm {
			n = mm
		}
		return n
	}
}

// splitList divides targets into n near-equal contiguous sub-lists.
func splitList(targets []cluster.NodeID, n int) [][]cluster.NodeID {
	if n <= 0 {
		return nil
	}
	out := make([][]cluster.NodeID, 0, n)
	base, extra := len(targets)/n, len(targets)%n
	pos := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < extra {
			sz++
		}
		if sz == 0 {
			continue
		}
		out = append(out, targets[pos:pos+sz])
		pos += sz
	}
	return out
}

// Broadcast relays one payload to the target compute nodes through the
// satellite layer, with reallocation and master-takeover fault tolerance.
// done (may be nil) receives the merged result when every target has
// resolved. Its Resolved list (comm.Broadcaster.RecordResolved) goes back
// to the broadcaster's Lists when done returns, so done must not keep it.
func (m *Master) Broadcast(targets []cluster.NodeID, size int, done func(comm.Result)) {
	m.in.broadcasts.Inc()
	master := m.Cluster.Master().ID
	mm := m.Meter()
	mm.ChargeCPU(m.B.SendOverhead) // task splitting
	tr := m.engine.Tracer()
	var root obs.SpanID
	if tr != nil {
		root = tr.Start("master.broadcast", 0, obs.Int("targets", len(targets)))
	}

	if len(targets) == 0 {
		tr.End(root)
		if done != nil {
			done(comm.Result{})
		}
		return
	}

	n := m.SatelliteFanout(len(targets))
	sats := m.Pool.SelectRunning(n)
	if len(sats) == 0 {
		// No satellite available at all: the master must do the work
		// rather than stall. A fully drained pool (all FAULT/DOWN) is the
		// graceful-degradation case the chaos harness asserts on.
		m.in.takeovers.Inc()
		drained := m.Pool.Drained()
		if drained {
			m.in.drainedFallbacks.Inc()
		}
		tr.Instant("master.takeover", root, obs.String("reason", takeoverReason(drained)))
		m.directBroadcast(master, targets, size, root, func(r comm.Result, _ time.Duration) {
			tr.SetAttrInt(root, "delivered", r.Delivered)
			tr.End(root)
			if done != nil {
				done(r)
			}
		})
		return
	}
	subs := splitList(targets, len(sats))
	tr.SetAttrInt(root, "fanout", len(subs))

	start := m.engine.Now()
	merged := comm.Result{}
	// Only a caller that reads the result needs the merged identities.
	resolved := m.B.RecordResolved && done != nil
	if resolved {
		merged.Resolved = m.B.Lists.Get(len(targets))
	}
	pending := len(subs)
	// finish merges one sub-task's outcome. deliveredAt is the absolute
	// virtual time of the sub-broadcast's last successful delivery, so the
	// merged DeliveredElapsed measures when the message reached every
	// reachable node — not when timeout bookkeeping for dead leaves
	// drained (the paper's "message broadcast time").
	finish := func(r comm.Result, deliveredAt time.Duration) {
		merged.Delivered += r.Delivered
		if resolved {
			merged.Resolved = append(merged.Resolved, r.Resolved...)
		}
		merged.Unreachable = append(merged.Unreachable, r.Unreachable...)
		merged.Messages += r.Messages
		merged.Retries += r.Retries
		if d := m.engine.Now() - start; d > merged.Elapsed {
			merged.Elapsed = d
		}
		if r.Delivered > 0 && deliveredAt > start {
			if d := deliveredAt - start; d > merged.DeliveredElapsed {
				merged.DeliveredElapsed = d
			}
		}
		pending--
		if pending == 0 {
			tr.SetAttrInt(root, "delivered", merged.Delivered)
			tr.SetAttrInt(root, "unreachable", len(merged.Unreachable))
			tr.End(root)
			if done != nil {
				done(merged)
				m.B.Lists.Put(merged.Resolved)
			}
		}
	}

	// Task preparation is serialized at the master: authorization,
	// sub-list slicing and marshalling cost masterPerTaskDispatch each.
	for i, sub := range subs {
		i, sub := i, sub
		delay := time.Duration(i+1) * masterPerTaskDispatch
		mm.ChargeCPU(masterPerTaskDispatch)
		m.engine.After(delay, func() {
			m.dispatchTask(sats[i], sub, size, 0, root, finish)
		})
	}
	m.in.subTasks.Add(int64(len(subs)))
}

// takeoverReason labels master.takeover instants for the trace.
func takeoverReason(drained bool) string {
	if drained {
		return "pool-drained"
	}
	return "no-running-satellite"
}

// dispatchTask hands one sub-list to a satellite; trail counts previous
// reallocation attempts for this task, and parent is the master.broadcast
// span the task span nests under.
func (m *Master) dispatchTask(sat *satellite.Satellite, sub []cluster.NodeID, size int, trail int, parent obs.SpanID, finish func(comm.Result, time.Duration)) {
	master := m.Cluster.Master().ID
	tr := m.engine.Tracer()
	var task obs.SpanID
	if tr != nil {
		task = tr.Start("master.task", parent,
			obs.Int("sat", int(sat.ID)), obs.Int("nodes", len(sub)), obs.Int("trail", trail))
	}
	m.Pool.Apply(sat, satellite.EvBTAssigned)
	sat.NodesServed += len(sub)

	// The satellite's resident set high-water mark follows the largest
	// sub-nodelist it has buffered.
	sm := m.Cluster.Meter(sat.ID)
	if target := satelliteBaseRSS + int64(len(sub))*satellitePerNodeRSS; sm.RSS() < target {
		sm.AddRSS(target - sm.RSS())
	}

	taskBytes := proto.TaskAssignSize(len(sub), size)
	responded := false

	// fail closes the task span with an outcome label and hands the task
	// to the reallocation path.
	fail := func(outcome string) {
		responded = true
		tr.SetAttr(task, "outcome", outcome)
		tr.End(task)
		m.Pool.Apply(sat, satellite.EvBTFailure)
		m.reallocate(sat, sub, size, trail, parent, finish)
	}

	// Watchdog: if the satellite never responds (e.g. it died mid-task),
	// treat the task as failed and reallocate.
	watchdog := m.engine.After(m.cfg.TaskTimeout, func() {
		if responded {
			return
		}
		fail("timeout")
	})

	m.B.Send(master, sat.ID, taskBytes, task, func(ok bool) {
		if responded {
			return
		}
		if !ok {
			watchdog.Cancel()
			fail("assign-undelivered")
			return
		}
		// The satellite constructs an FP-Tree over its sub-list (Θ(n),
		// Section IV-D) and marshals per-child sub-nodelists before
		// relaying.
		proc := comm.RelayOverhead + time.Duration(len(sub))*satellitePerNodeProc
		m.Cluster.Meter(sat.ID).ChargeCPU(proc)
		bStart := m.engine.Now() + proc
		structure := comm.FPTree{Width: m.cfg.TreeWidth, Predictor: m.effectivePredictor(), Stats: m.Placement, Parent: task}
		m.engine.After(proc, func() {
			structure.Broadcast(m.B, sat.ID, sub, size, func(r comm.Result) {
				m.markSuspects(r.Unreachable)
				if responded {
					return
				}
				// Aggregate response back to the master (wire-encoded
				// per-node statuses, see package proto).
				respBytes := proto.AggregateReplySize(len(sub), len(r.Unreachable))
				m.B.Send(sat.ID, master, respBytes, task, func(respOK bool) {
					if responded {
						return
					}
					watchdog.Cancel()
					if respOK {
						responded = true
						m.Pool.Apply(sat, satellite.EvBTSuccess)
						m.Meter().ChargeCPU(time.Duration(len(sub)) * time.Microsecond) // merge aggregate
						tr.SetAttrInt(task, "delivered", r.Delivered)
						tr.End(task)
						finish(r, bStart+r.DeliveredElapsed)
						m.B.Lists.Put(r.Resolved)
						return
					}
					fail("reply-undelivered")
				})
			})
		})
	})
}

// reallocate implements Section III-C: move the task to the next satellite
// in the round-robin; after ReallocLimit trails the master takes over.
// parent is the originating master.broadcast span.
func (m *Master) reallocate(failed *satellite.Satellite, sub []cluster.NodeID, size int, trail int, parent obs.SpanID, finish func(comm.Result, time.Duration)) {
	tr := m.engine.Tracer()
	trail++
	takeover := func() {
		m.in.takeovers.Inc()
		tr.Instant("master.takeover", parent,
			obs.Int("nodes", len(sub)), obs.Int("trail", trail))
		m.directBroadcast(m.Cluster.Master().ID, sub, size, parent, finish)
	}
	if trail > m.cfg.ReallocLimit {
		takeover()
		return
	}
	next := m.Pool.NextRunning()
	if next == nil || next.ID == failed.ID {
		takeover()
		return
	}
	m.in.reallocations.Inc()
	tr.Instant("master.realloc", parent,
		obs.Int("from", int(failed.ID)), obs.Int("to", int(next.ID)), obs.Int("trail", trail))
	m.dispatchTask(next, sub, size, trail, parent, finish)
}

// directBroadcast is the master-takeover path: the master relays to the
// sub-list itself over an FP-Tree, "ensuring that the task is processed
// correctly and promptly".
func (m *Master) directBroadcast(origin cluster.NodeID, sub []cluster.NodeID, size int, parent obs.SpanID, finish func(comm.Result, time.Duration)) {
	bStart := m.engine.Now()
	structure := comm.FPTree{Width: m.cfg.TreeWidth, Predictor: m.effectivePredictor(), Stats: m.Placement, Parent: parent}
	structure.Broadcast(m.B, origin, sub, size, func(r comm.Result) {
		m.markSuspects(r.Unreachable)
		if finish != nil {
			finish(r, bStart+r.DeliveredElapsed)
		}
		m.B.Lists.Put(r.Resolved)
	})
}

// DrainSatellite gracefully removes a satellite from service: it is
// cordoned out of the round-robin immediately, in-flight broadcast tasks
// are given until the deadline to resolve, and only then is the SHUTDOWN
// command of Table II applied and sent as a real control message. Tasks
// stranded by a forced drain are re-adopted by the dispatch watchdog
// (reallocation, then master takeover), so no task is dropped. done, if
// set, is called exactly once: clean reports whether the satellite left
// BUSY on its own, delivered whether the shutdown message reached the
// node.
func (m *Master) DrainSatellite(id cluster.NodeID, deadline time.Duration, done func(clean, delivered bool)) error {
	if m.Pool.Get(id) == nil {
		return fmt.Errorf("core: node %d is not a satellite", id)
	}
	return m.Pool.Drain(id, deadline, func(clean bool) {
		m.B.Send(m.Cluster.Master().ID, id, HeartbeatMsgBytes, 0, func(ok bool) {
			if done != nil {
				done(clean, ok)
			}
		})
	})
}

// ProbeSatellite heartbeats a single satellite out of cycle, feeding the
// outcome to the state machine exactly like the periodic sweep. The
// reconciler uses this to promote a just-reinstated standby without
// waiting for the next sweep.
func (m *Master) ProbeSatellite(id cluster.NodeID) error {
	s := m.Pool.Get(id)
	if s == nil {
		return fmt.Errorf("core: node %d is not a satellite", id)
	}
	m.probe(s)
	return nil
}

// Tune applies runtime-adjustable ESlurm parameters (the spec-carried
// subset): tree width, reallocation limit, and heartbeat cadence. Zero
// values keep the current setting. Changing the cadence restarts the
// heartbeat ticker from now; an unchanged cadence is left alone so a
// no-op Tune cannot perturb the event trace.
func (m *Master) Tune(treeWidth, reallocLimit int, heartbeat time.Duration) {
	if treeWidth > 0 {
		m.cfg.TreeWidth = treeWidth
	}
	if reallocLimit > 0 {
		m.cfg.ReallocLimit = reallocLimit
	}
	if heartbeat > 0 && heartbeat != m.cfg.HeartbeatInterval {
		m.cfg.HeartbeatInterval = heartbeat
		if m.hb != nil {
			m.hb.Stop()
			m.hb = m.engine.Every(m.cfg.HeartbeatInterval, m.heartbeatSweep)
		}
	}
}

// heartbeatSweep probes satellites directly and compute nodes through the
// satellite layer, feeding the state machine and the predictor pipeline.
func (m *Master) heartbeatSweep() {
	m.in.sweeps.Inc()
	m.probeSatellites()
	m.Broadcast(m.Cluster.Computes(), HeartbeatMsgBytes, nil)
}

// LoadJob broadcasts the job-loading message to the job's nodes and charges
// the master's job bookkeeping. done receives the broadcast result.
func (m *Master) LoadJob(nodes []cluster.NodeID, done func(comm.Result)) {
	mm := m.Meter()
	mm.ChargeCPU(schedCPUPerJob)
	mm.AddVMem(perJobState)
	mm.AddRSS(perJobState / 4)
	m.jobs++
	m.Broadcast(nodes, JobLoadMsgBytes, done)
}

// TerminateJob broadcasts the job-termination message and releases the
// master's per-job state. ESlurm returns job memory to the allocator
// (unlike the Slurm model, whose virtual footprint only grows).
func (m *Master) TerminateJob(nodes []cluster.NodeID, done func(comm.Result)) {
	mm := m.Meter()
	mm.ChargeCPU(schedCPUPerJob / 2)
	m.Broadcast(nodes, JobTermMsgBytes, func(r comm.Result) {
		mm.AddVMem(-perJobState)
		mm.AddRSS(-perJobState / 4)
		if m.jobs > 0 {
			m.jobs--
		}
		if done != nil {
			done(r)
		}
	})
}

// ActiveJobs returns the number of jobs currently tracked by the master.
func (m *Master) ActiveJobs() int { return m.jobs }
