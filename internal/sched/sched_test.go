package sched

import (
	"testing"
	"time"

	"eslurm/internal/estimate"
	"eslurm/internal/trace"
)

// mkJob builds a trace job for hand-written scenarios.
func mkJob(id, nodes int, submit, runtime, est time.Duration) trace.Job {
	return trace.Job{
		ID: id, Name: "j", User: "u", Nodes: nodes, Cores: nodes * 24,
		Submit: submit, Runtime: runtime, UserEstimate: est,
	}
}

func TestSingleJob(t *testing.T) {
	jobs := []trace.Job{mkJob(0, 4, 0, time.Hour, 2*time.Hour)}
	res := Run(jobs, Config{Nodes: 8})
	if res.Completed != 1 || res.Killed != 0 {
		t.Fatalf("completed=%d killed=%d", res.Completed, res.Killed)
	}
	if res.AvgWait != 0 {
		t.Errorf("wait = %v, want 0 (empty cluster)", res.AvgWait)
	}
	if res.Makespan != time.Hour {
		t.Errorf("makespan = %v", res.Makespan)
	}
	// 4 of 8 nodes busy for the whole makespan.
	if res.Utilization < 0.49 || res.Utilization > 0.51 {
		t.Errorf("utilization = %v, want 0.5", res.Utilization)
	}
}

func TestFCFSOrdering(t *testing.T) {
	// Two 8-node jobs on an 8-node cluster: strictly serial.
	jobs := []trace.Job{
		mkJob(0, 8, 0, time.Hour, time.Hour),
		mkJob(1, 8, 0, time.Hour, time.Hour),
	}
	res := Run(jobs, Config{Nodes: 8, Policy: FCFS})
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Makespan != 2*time.Hour {
		t.Errorf("makespan = %v, want 2h", res.Makespan)
	}
	// Second job waited one hour.
	if res.AvgWait != 30*time.Minute {
		t.Errorf("avg wait = %v, want 30m", res.AvgWait)
	}
}

func TestBackfillFillsHole(t *testing.T) {
	// J0 takes 6/8 nodes for 2h. J1 (head) needs 8 and must wait. J2 needs
	// 2 nodes for 1h: under EASY it backfills immediately because it ends
	// before J1's reservation.
	jobs := []trace.Job{
		mkJob(0, 6, 0, 2*time.Hour, 2*time.Hour),
		mkJob(1, 8, time.Minute, time.Hour, time.Hour),
		mkJob(2, 2, 2*time.Minute, time.Hour, time.Hour),
	}
	bf := Run(jobs, Config{Nodes: 8, Policy: Backfill})
	fc := Run(jobs, Config{Nodes: 8, Policy: FCFS})
	if bf.Completed != 3 || fc.Completed != 3 {
		t.Fatal("jobs lost")
	}
	if bf.AvgWait >= fc.AvgWait {
		t.Errorf("backfill wait %v not below FCFS %v", bf.AvgWait, fc.AvgWait)
	}
	if bf.Utilization <= fc.Utilization {
		t.Errorf("backfill utilization %v not above FCFS %v", bf.Utilization, fc.Utilization)
	}
}

func TestBackfillDoesNotStarveHead(t *testing.T) {
	// The backfilled job must not delay the head's reservation: a 2-node
	// job whose walltime exceeds the shadow time and needs reserved nodes
	// must NOT start.
	jobs := []trace.Job{
		mkJob(0, 7, 0, time.Hour, time.Hour),                 // leaves 1 free
		mkJob(1, 8, time.Minute, time.Hour, time.Hour),       // head, reserves t=1h
		mkJob(2, 1, 2*time.Minute, 3*time.Hour, 3*time.Hour), // would push head to t=3h
	}
	res := Run(jobs, Config{Nodes: 8, Policy: Backfill})
	// Head must start at ~1h => completes at ~2h; long job backfills only
	// after... total makespan: j0 ends 1h, head runs 1-2h, j2 runs 2-5h.
	if res.Makespan < 4*time.Hour {
		t.Errorf("makespan = %v: the 3h job delayed the head", res.Makespan)
	}
}

func TestOversizedJobDropped(t *testing.T) {
	jobs := []trace.Job{
		mkJob(0, 100, 0, time.Hour, time.Hour),
		mkJob(1, 4, 0, time.Hour, time.Hour),
	}
	res := Run(jobs, Config{Nodes: 8})
	if res.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (oversized rejected)", res.Completed)
	}
}

func TestKillAtLimitAndResubmit(t *testing.T) {
	// Underestimated job: 1h estimate, 2h actual. With KillAtLimit it is
	// killed at 1h and resubmitted with a doubled (2h) limit, which still
	// kills it at exactly its runtime boundary... 2h >= 2h runtime, so the
	// rerun completes.
	jobs := []trace.Job{mkJob(0, 4, 0, 2*time.Hour, time.Hour)}
	res := Run(jobs, Config{Nodes: 8, KillAtLimit: true})
	if res.Killed != 1 {
		t.Fatalf("killed = %d, want 1", res.Killed)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (the resubmission)", res.Completed)
	}
	// The kill wasted an hour: makespan = 1h (killed run) + 2h (rerun).
	if res.Makespan != 3*time.Hour {
		t.Errorf("makespan = %v, want 3h", res.Makespan)
	}
}

func TestNoKillWithoutFlag(t *testing.T) {
	jobs := []trace.Job{mkJob(0, 4, 0, 2*time.Hour, time.Hour)}
	res := Run(jobs, Config{Nodes: 8})
	if res.Killed != 0 || res.Completed != 1 {
		t.Errorf("killed=%d completed=%d", res.Killed, res.Completed)
	}
}

func TestOverheadExtendsOccupation(t *testing.T) {
	jobs := []trace.Job{mkJob(0, 4, 0, time.Hour, time.Hour)}
	ov := func(int) (time.Duration, time.Duration) { return 5 * time.Minute, 5 * time.Minute }
	res := Run(jobs, Config{Nodes: 8, Overhead: ov})
	if res.Makespan != 70*time.Minute {
		t.Errorf("makespan = %v, want 70m (load+run+term)", res.Makespan)
	}
}

func TestCrashDelaysScheduling(t *testing.T) {
	// With the RM down nearly always, queue waits explode.
	var jobs []trace.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, mkJob(i, 4, time.Duration(i)*time.Minute, 30*time.Minute, time.Hour))
	}
	clean := Run(jobs, Config{Nodes: 8})
	crashy := Run(jobs, Config{Nodes: 8, CrashMTBF: 30 * time.Minute, Seed: 3})
	if crashy.AvgWait <= clean.AvgWait {
		t.Errorf("crashes did not increase wait: %v vs %v", crashy.AvgWait, clean.AvgWait)
	}
	if crashy.Completed != clean.Completed {
		t.Errorf("crashes lost jobs: %d vs %d", crashy.Completed, clean.Completed)
	}
}

func TestSlowdownBounded(t *testing.T) {
	// A 1-second job with zero wait: slowdown clamps at 1 via tau.
	jobs := []trace.Job{mkJob(0, 1, 0, time.Second, time.Minute)}
	res := Run(jobs, Config{Nodes: 8})
	if res.AvgBoundedSlowdown != 1 {
		t.Errorf("bounded slowdown = %v, want 1", res.AvgBoundedSlowdown)
	}
}

func TestTraceReplayRealistic(t *testing.T) {
	tr := trace.Generate(trace.Tianhe2AConfig(3000))
	res := Run(tr.Jobs, Config{Nodes: 1024, KillAtLimit: true})
	if res.Completed < 2500 {
		t.Fatalf("completed = %d of ~3000", res.Completed)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
	if res.AvgBoundedSlowdown < 1 {
		t.Errorf("slowdown = %v < 1", res.AvgBoundedSlowdown)
	}
}

func TestAccurateWalltimesImproveScheduling(t *testing.T) {
	// The Fig. 10 mechanism: planning with accurate runtimes (here: an
	// oracle predictor with a small margin) must not be worse than
	// planning with inflated user estimates, and typically reduces waits.
	tr := trace.Generate(trace.Tianhe2AConfig(4000))
	user := Run(tr.Jobs, Config{Nodes: 512, KillAtLimit: true})
	oracle := Run(tr.Jobs, Config{Nodes: 512, KillAtLimit: true, Predictor: oraclePred{}})
	if oracle.AvgWait > user.AvgWait {
		t.Errorf("oracle walltimes increased wait: %v vs %v", oracle.AvgWait, user.AvgWait)
	}
	if oracle.Utilization < user.Utilization-0.02 {
		t.Errorf("oracle utilization %v below user %v", oracle.Utilization, user.Utilization)
	}
}

// oraclePred plans with the actual runtime plus 5%.
type oraclePred struct{}

func (oraclePred) Walltime(j *trace.Job) time.Duration {
	return time.Duration(float64(j.Runtime) * 1.05)
}
func (oraclePred) JobDone(*trace.Job) {}

func TestFrameworkWalltimesIntegration(t *testing.T) {
	tr := trace.Generate(trace.NGTianheConfig(3000))
	f := estimate.NewFramework(estimate.FrameworkConfig{})
	res := Run(tr.Jobs, Config{Nodes: 2048, KillAtLimit: true, Predictor: FrameworkWalltimes{F: f}})
	if res.Completed < 2500 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if f.Generations == 0 {
		t.Error("framework never trained during replay")
	}
}

func TestRunPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on Nodes=0")
		}
	}()
	Run(nil, Config{})
}

func TestWaitDistributionMetrics(t *testing.T) {
	// Three serial 8-node jobs: waits are 0, 1h, 2h.
	jobs := []trace.Job{
		mkJob(0, 8, 0, time.Hour, time.Hour),
		mkJob(1, 8, 0, time.Hour, time.Hour),
		mkJob(2, 8, 0, time.Hour, time.Hour),
	}
	res := Run(jobs, Config{Nodes: 8, Policy: FCFS})
	if res.AvgWait != time.Hour {
		t.Errorf("avg wait = %v, want 1h", res.AvgWait)
	}
	// Bounded slowdowns are 1, 2 and 3 (Eq. 6).
	if res.AvgBoundedSlowdown != 2 {
		t.Errorf("avg bounded slowdown = %v, want 2", res.AvgBoundedSlowdown)
	}
}

func TestPlanFCFSStopsAtBlockedHead(t *testing.T) {
	queue := []Request{{Nodes: 2, Span: time.Hour}, {Nodes: 8, Span: time.Hour}, {Nodes: 1, Span: time.Minute}}
	got := Plan(FCFS, 0, 4, nil, queue)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("FCFS plan = %v, want [0]", got)
	}
}

func TestPlanBackfill(t *testing.T) {
	// 2 nodes idle; 6 come back at 2h. The 8-node head reserves t=2h with
	// no spare nodes, so only a job that ends by then may jump it.
	running := []Release{{End: 2 * time.Hour, Nodes: 6}}
	queue := []Request{
		{Nodes: 8, Span: time.Hour},     // head: blocked
		{Nodes: 2, Span: 3 * time.Hour}, // would delay the head
		{Nodes: 2, Span: time.Hour},     // ends by the shadow time
		{Nodes: 1, Span: time.Minute},   // nothing left
	}
	got := Plan(Backfill, 0, 2, running, queue)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("backfill plan = %v, want [2]", got)
	}
}

// TestPlanCountsEveryReleaseAtTheShadowTime: two jobs that end together
// both free their nodes at the shadow time. The 6-node head needs only
// one of them, so it leaves 4 spare and a long 2-node job may use them
// now, whichever order running lists the releases in.
func TestPlanCountsEveryReleaseAtTheShadowTime(t *testing.T) {
	queue := []Request{{Nodes: 6, Span: time.Hour}, {Nodes: 2, Span: 10 * time.Hour}}
	for _, running := range [][]Release{
		{{End: time.Hour, Nodes: 4}, {End: time.Hour, Nodes: 4}},
		{{End: time.Hour, Nodes: 6}, {End: time.Hour, Nodes: 2}},
		{{End: time.Hour, Nodes: 2}, {End: time.Hour, Nodes: 6}},
	} {
		got := Plan(Backfill, 0, 2, running, queue)
		if len(got) != 1 || got[0] != 1 {
			t.Errorf("%v: plan = %v, want the long job on the head's spare nodes", running, got)
		}
	}
}

func TestKillLimitNeverBelowRequest(t *testing.T) {
	if got := KillLimit(time.Hour, 2*time.Hour); got != 2*time.Hour {
		t.Errorf("short prediction: kill at %v, want the 2h request", got)
	}
	if got := KillLimit(3*time.Hour, 2*time.Hour); got != 3*time.Hour {
		t.Errorf("long prediction: kill at %v, want the 3h prediction", got)
	}
}
