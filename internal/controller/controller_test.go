package controller

import (
	"fmt"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/core"
	"eslurm/internal/estimate"
	"eslurm/internal/jobs"
	"eslurm/internal/sched"
	"eslurm/internal/simnet"
	"eslurm/internal/trace"
)

func newController(seed int64, computes int, cfg Config) (*simnet.Engine, *cluster.Cluster, *Controller) {
	e := simnet.NewEngine(seed)
	c := cluster.New(e, cluster.Config{Computes: computes, Satellites: 2})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	ctl, err := New(c, m, cfg)
	if err != nil {
		panic(err)
	}
	ctl.Start()
	e.RunUntil(time.Second)
	return e, c, ctl
}

func TestSingleJobLifecycle(t *testing.T) {
	e, _, ctl := newController(1, 64, Config{})
	id, err := ctl.Submit(JobSpec{
		Name: "cfd", User: "alice", Nodes: 16, Cores: 384,
		UserEstimate: time.Hour, Runtime: 30 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(2 * time.Hour)
	j := ctl.Registry.Get(id)
	if j == nil || j.State() != jobs.Completed {
		t.Fatalf("job state = %v", j.State())
	}
	m := ctl.Metrics()
	if m.Completed != 1 || m.TimedOut != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.AvgSpawn() <= 0 {
		t.Error("spawn latency not recorded")
	}
	if ctl.RunningCount() != 0 || ctl.QueueDepth() != 0 {
		t.Error("controller state not drained")
	}
	if ctl.defaultPart.allocator.FreeCount() != 64 {
		t.Error("nodes leaked")
	}
}

func TestOversizedRejected(t *testing.T) {
	_, _, ctl := newController(2, 16, Config{})
	if _, err := ctl.Submit(JobSpec{Name: "x", User: "u", Nodes: 32,
		UserEstimate: time.Hour, Runtime: time.Minute}); err == nil {
		t.Fatal("oversized submission accepted")
	}
	if ctl.Metrics().Rejected != 1 {
		t.Error("rejection not counted")
	}
}

func TestWalltimeKill(t *testing.T) {
	e, _, ctl := newController(3, 32, Config{KillAtLimit: true})
	id, _ := ctl.Submit(JobSpec{Name: "x", User: "u", Nodes: 4, Cores: 96,
		UserEstimate: 10 * time.Minute, Runtime: time.Hour})
	e.RunUntil(2 * time.Hour)
	j := ctl.Registry.Get(id)
	if j.State() != jobs.Timeout {
		t.Fatalf("killed job state = %v", j.State())
	}
	if ctl.Metrics().TimedOut != 1 {
		t.Error("timeout not counted")
	}
	if ctl.defaultPart.allocator.FreeCount() != 32 {
		t.Error("killed job leaked nodes")
	}
}

func TestQueueingAndBackfill(t *testing.T) {
	e, _, ctl := newController(4, 8, Config{})
	// J1 takes 6/8 nodes for 2h; J2 (8 nodes) must wait; J3 (2 nodes, 1h)
	// backfills.
	ctl.Submit(JobSpec{Name: "j1", User: "u", Nodes: 6, UserEstimate: 2 * time.Hour, Runtime: 2 * time.Hour})
	e.RunUntil(time.Minute)
	ctl.Submit(JobSpec{Name: "j2", User: "u", Nodes: 8, UserEstimate: time.Hour, Runtime: time.Hour})
	e.RunUntil(2 * time.Minute)
	id3, _ := ctl.Submit(JobSpec{Name: "j3", User: "u", Nodes: 2, UserEstimate: 90 * time.Minute, Runtime: 90 * time.Minute})
	e.RunUntil(10 * time.Minute)
	if ctl.Registry.Get(id3).State() != jobs.Running {
		t.Fatalf("backfill candidate state = %v", ctl.Registry.Get(id3).State())
	}
	e.RunUntil(6 * time.Hour)
	if got := ctl.Metrics().Completed; got != 3 {
		t.Fatalf("completed = %d, want 3", got)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	e, _, ctl := newController(5, 8, Config{})
	ctl.Submit(JobSpec{Name: "j1", User: "u", Nodes: 7, UserEstimate: time.Hour, Runtime: time.Hour})
	e.RunUntil(time.Minute)
	head, _ := ctl.Submit(JobSpec{Name: "head", User: "u", Nodes: 8, UserEstimate: time.Hour, Runtime: time.Hour})
	e.RunUntil(2 * time.Minute)
	// This 1-node job would end long after the head's reservation and
	// needs the head's nodes: it must NOT start.
	long, _ := ctl.Submit(JobSpec{Name: "long", User: "u", Nodes: 1, UserEstimate: 5 * time.Hour, Runtime: 5 * time.Hour})
	e.RunUntil(30 * time.Minute)
	if ctl.Registry.Get(long).State() != jobs.Pending {
		t.Fatal("backfill delayed the head job")
	}
	e.RunUntil(90 * time.Minute)
	if ctl.Registry.Get(head).State() != jobs.Running {
		t.Fatalf("head state = %v at t=90m", ctl.Registry.Get(head).State())
	}
}

func TestPriorityOrderDrivesStarts(t *testing.T) {
	e, _, ctl := newController(6, 8, Config{})
	// Saturate the cluster first.
	ctl.Submit(JobSpec{Name: "fill", User: "w", Nodes: 8, UserEstimate: time.Hour, Runtime: time.Hour})
	e.RunUntil(time.Minute)
	// A small job from a fresh user vs an equal job from a user with a
	// huge fair-share debt: the fresh user starts first.
	heavy, _ := ctl.Submit(JobSpec{Name: "h", User: "heavy", Nodes: 8, UserEstimate: time.Hour, Runtime: 30 * time.Minute})
	light, _ := ctl.Submit(JobSpec{Name: "l", User: "light", Nodes: 8, UserEstimate: time.Hour, Runtime: 30 * time.Minute})
	// Charge the heavy user an enormous decayed usage.
	ctl.Registry.Fairshare().Charge("heavy", 1e10, e.Now())
	e.RunUntil(90 * time.Minute)
	lj, hj := ctl.Registry.Get(light), ctl.Registry.Get(heavy)
	if lj.StartAt >= hj.StartAt && hj.State() != jobs.Pending {
		t.Errorf("light user (start %v) did not beat heavy user (start %v)", lj.StartAt, hj.StartAt)
	}
}

func TestEstimatorIntegration(t *testing.T) {
	fw := estimate.NewFramework(estimate.FrameworkConfig{MinTrain: 40, RefreshEvery: time.Hour})
	e, _, ctl := newController(7, 256, Config{Predictor: sched.FrameworkWalltimes{F: fw}, KillAtLimit: true})
	// Feed a steady stream of identical jobs; after the framework trains,
	// its walltimes take over from the (inflated) user estimates.
	rng := e.Rand("test/jobs")
	submit := func(at time.Duration) {
		e.Schedule(at, func() {
			ctl.Submit(JobSpec{
				Name: "sweep", User: "u", Nodes: 1 + rng.Intn(4), Cores: 24,
				UserEstimate: 4 * time.Hour, Runtime: 10 * time.Minute,
			})
		})
	}
	for i := 0; i < 200; i++ {
		submit(time.Second + time.Duration(i)*4*time.Minute)
	}
	e.RunUntil(20 * time.Hour)
	if fw.Generations == 0 {
		t.Fatal("framework never trained")
	}
	m := ctl.Metrics()
	if m.Completed < 190 {
		t.Fatalf("completed = %d", m.Completed)
	}
	// The tight slack keeps kills rare despite model walltimes.
	if m.TimedOut > 10 {
		t.Errorf("timeouts = %d, want few", m.TimedOut)
	}
}

func TestTraceReplayThroughController(t *testing.T) {
	e, _, ctl := newController(8, 512, Config{KillAtLimit: true})
	tr := trace.Generate(trace.Tianhe2AConfig(400))
	for i := range tr.Jobs {
		j := tr.Jobs[i]
		if j.Nodes > 512 {
			continue
		}
		e.Schedule(time.Second+j.Submit, func() {
			ctl.Submit(JobSpec{Name: j.Name, User: j.User, Nodes: j.Nodes,
				Cores: j.Cores, UserEstimate: j.UserEstimate, Runtime: j.Runtime})
		})
	}
	e.RunUntil(40 * 24 * time.Hour)
	m := ctl.Metrics()
	if m.Completed+m.TimedOut < m.Submitted*9/10 {
		t.Fatalf("only %d/%d jobs finished", m.Completed+m.TimedOut, m.Submitted)
	}
	if ctl.defaultPart.allocator.FreeCount() != 512 {
		t.Error("nodes leaked after replay")
	}
}

// timedSpec is one submission of a replay.
type timedSpec struct {
	at   time.Duration
	spec JobSpec
}

// replay submits specs to a fresh controller over computes nodes and
// returns the cluster's event digest and the final metrics.
func replay(seed int64, computes int, parts func(*cluster.Cluster) []Partition, specs []timedSpec) (uint64, Metrics) {
	e := simnet.NewEngine(seed)
	c := cluster.New(e, cluster.Config{Computes: computes, Satellites: 2})
	e.EnableDigest()
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	cfg := Config{KillAtLimit: true}
	if parts != nil {
		cfg.Partitions = parts(c)
	}
	ctl, err := New(c, m, cfg)
	if err != nil {
		panic(err)
	}
	ctl.Start()
	end := time.Duration(0)
	for _, s := range specs {
		s := s
		e.Schedule(s.at, func() { ctl.Submit(s.spec) })
		if s.at > end {
			end = s.at
		}
	}
	e.RunUntil(end + 4*24*time.Hour)
	ctl.Stop()
	e.RunUntil(e.Now() + time.Hour)
	return e.Digest(), ctl.Metrics()
}

// contendedTrace is 300 Tianhe-2A jobs of at most 64 nodes submitted
// within six simulated hours: on 128 nodes most of them queue.
func contendedTrace() []timedSpec {
	gen := trace.Tianhe2AConfig(300)
	gen.Days = 1
	gen.MaxNodes = 64
	var out []timedSpec
	for _, j := range trace.Generate(gen).Jobs {
		out = append(out, timedSpec{time.Second + j.Submit/4, JobSpec{Name: j.Name, User: j.User,
			Nodes: j.Nodes, Cores: j.Cores, UserEstimate: j.UserEstimate, Runtime: j.Runtime}})
	}
	return out
}

// TestReplayPinned pins the event digest and metrics of one contended
// single-partition replay: planner, allocator and lifecycle changes that
// claim "same schedule" answer to it.
func TestReplayPinned(t *testing.T) {
	const (
		wantDigest  = 0xd223f6558e20aef0
		wantMetrics = "{Submitted:300 Started:300 Completed:262 TimedOut:38 Rejected:0 WaitSum:608h14m3.76613558s SpawnSum:931.66838ms SpawnReps:300}"
	)
	digest, m := replay(7, 128, nil, contendedTrace())
	if got := fmt.Sprintf("%+v", m); digest != wantDigest || got != wantMetrics {
		t.Errorf("replay digest %016x metrics %s, want %016x %s", digest, got, uint64(wantDigest), wantMetrics)
	}
}

// TestMultiPartitionReplayDeterministic: partitions are scheduled in
// configuration order, so launches issued in one pass broadcast in the
// same order on every run. Each round provokes such a pass: partition a's
// job completes and charges its user's fair share, which in the same pass
// lets a's queued job start and demotes that user's head job in b below a
// 4-node job that fits b's free nodes.
func TestMultiPartitionReplayDeterministic(t *testing.T) {
	halves := func(c *cluster.Cluster) []Partition {
		comps := c.Computes()
		return []Partition{{Name: "a", Nodes: comps[:64], Default: true}, {Name: "b", Nodes: comps[64:]}}
	}
	var specs []timedSpec
	job := func(at time.Duration, part, user string, nodes int, est, run time.Duration) {
		specs = append(specs, timedSpec{at, JobSpec{Name: "j", User: user, Partition: part,
			Nodes: nodes, UserEstimate: est, Runtime: run}})
	}
	for k := 0; k < 6; k++ {
		t0, heavy := time.Duration(k)*24*time.Hour+time.Second, fmt.Sprint("heavy", k)
		job(t0, "a", heavy, 64, 2*time.Hour, time.Hour)
		job(t0, "b", "filler", 60, 10*time.Hour, 10*time.Hour)
		job(t0+time.Minute, "b", heavy, 64, time.Hour, time.Hour)
		job(t0+time.Minute, "b", fmt.Sprint("light", k), 4, 20*time.Hour, time.Hour)
		job(t0+time.Minute, "a", "other", 8, time.Hour, 30*time.Minute)
	}
	want, wm := replay(7, 128, halves, specs)
	for run := 1; run < 4; run++ {
		if got, gm := replay(7, 128, halves, specs); got != want || gm != wm {
			t.Fatalf("run %d: digest %016x metrics %+v, run 0: %016x %+v", run, got, gm, want, wm)
		}
	}
}
