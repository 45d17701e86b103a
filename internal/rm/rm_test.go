package rm

import (
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/simnet"
)

func newESlurm(c *cluster.Cluster) RM { return core.NewMaster(c, core.DefaultConfig(), nil) }

func newCluster(seed int64, computes, satellites int) *cluster.Cluster {
	e := simnet.NewEngine(seed)
	return cluster.New(e, cluster.Config{Computes: computes, Satellites: satellites})
}

// TestProfilesTableOrder: the one roster of centralized RMs holds the
// paper's five, in the order its tables print them.
func TestProfilesTableOrder(t *testing.T) {
	want := []string{"SGE", "Torque", "OpenPBS", "LSF", "Slurm"}
	got := Profiles()
	if len(got) != len(want) {
		t.Fatalf("Profiles() has %d entries, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.Name != want[i] {
			t.Errorf("Profiles()[%d] = %q, want %q", i, p.Name, want[i])
		}
	}
}

func TestCentralizedStartChargesMemory(t *testing.T) {
	c := newCluster(2, 100, 0)
	r := NewCentralized(c, SlurmProfile())
	r.Start()
	if r.Meter().VMem() < SlurmProfile().BaseVMem {
		t.Error("base vmem not charged")
	}
	if r.Meter().RSS() == 0 {
		t.Error("base rss not charged")
	}
	r.Stop()
}

func TestPersistentConnsSocketPool(t *testing.T) {
	c := newCluster(3, 200, 0)
	sge := NewCentralized(c, SGEProfile())
	sge.Start()
	if got := sge.Meter().Sockets(); got != 200 {
		t.Fatalf("SGE persistent sockets = %d, want 200 (one per node)", got)
	}
	sge.Stop()

	c2 := newCluster(3, 200, 0)
	slurm := NewCentralized(c2, SlurmProfile())
	slurm.Start()
	if got := slurm.Meter().Sockets(); got != 0 {
		t.Fatalf("Slurm persistent sockets = %d, want 0", got)
	}
	slurm.Stop()
}

func TestLoadJobCompletes(t *testing.T) {
	for _, mk := range []func(*cluster.Cluster) RM{
		func(c *cluster.Cluster) RM { return NewCentralized(c, SlurmProfile()) },
		func(c *cluster.Cluster) RM { return NewCentralized(c, SGEProfile()) },
		newESlurm,
	} {
		c := newCluster(4, 64, 2)
		r := mk(c)
		r.Start()
		c.Engine.RunUntil(time.Second)
		var spawn time.Duration
		r.LoadJob(c.Computes()[:32], func(res comm.Result) { spawn = res.DeliveredElapsed })
		c.Engine.RunUntil(10 * time.Minute)
		if spawn <= 0 {
			t.Errorf("%s: LoadJob never completed", r.Name())
		}
		var reclaim time.Duration
		r.TerminateJob(c.Computes()[:32], func(res comm.Result) { reclaim = res.Elapsed })
		c.Engine.RunUntil(20 * time.Minute)
		if reclaim <= 0 {
			t.Errorf("%s: TerminateJob never completed", r.Name())
		}
		r.Stop()
	}
}

func TestLowParallelismLaunchScalesBadly(t *testing.T) {
	// Fig. 7f: SGE/Torque/OpenPBS occupation time explodes with job size;
	// Slurm and ESlurm stay nearly flat.
	spawnTime := func(prof Profile, jobNodes int) time.Duration {
		c := newCluster(5, 2048, 0)
		r := NewCentralized(c, prof)
		r.Start()
		c.Engine.RunUntil(time.Second)
		var spawn time.Duration
		r.LoadJob(c.Computes()[:jobNodes], func(res comm.Result) { spawn = res.DeliveredElapsed })
		c.Engine.RunUntil(30 * time.Minute)
		r.Stop()
		return spawn
	}
	sgeSmall := spawnTime(SGEProfile(), 64)
	sgeBig := spawnTime(SGEProfile(), 2048)
	slurmSmall := spawnTime(SlurmProfile(), 64)
	slurmBig := spawnTime(SlurmProfile(), 2048)
	if sgeBig < 4*sgeSmall {
		t.Errorf("SGE spawn did not explode: %v -> %v", sgeSmall, sgeBig)
	}
	if slurmBig > 4*slurmSmall+time.Second {
		t.Errorf("Slurm spawn exploded unexpectedly: %v -> %v", slurmSmall, slurmBig)
	}
	if sgeBig < 5*slurmBig {
		t.Errorf("SGE (%v) should be much slower than Slurm (%v) at 2048 nodes", sgeBig, slurmBig)
	}
}

func TestSlurmVMemOnlyGrows(t *testing.T) {
	c := newCluster(6, 64, 0)
	r := NewCentralized(c, SlurmProfile())
	r.Start()
	c.Engine.RunUntil(time.Second)
	base := r.Meter().VMem()
	nodes := c.Computes()[:16]
	for i := 0; i < 10; i++ {
		r.LoadJob(nodes, nil)
		r.TerminateJob(nodes, nil)
	}
	c.Engine.RunUntil(10 * time.Minute)
	leaked := r.Meter().VMem() - base
	want := 10 * SlurmProfile().VMemLeakPerJob
	if leaked != want {
		t.Errorf("vmem growth = %d, want %d (leak per job x 10)", leaked, want)
	}
	r.Stop()
}

func TestHeartbeatBurnsPollingCPU(t *testing.T) {
	c := newCluster(7, 500, 0)
	r := NewCentralized(c, TorqueProfile())
	r.Start()
	c.Engine.RunUntil(10 * time.Minute)
	cpu := r.Meter().CPUTime()
	// 60 polls x 500 nodes x 30µs = 900ms minimum.
	if cpu < 800*time.Millisecond {
		t.Errorf("Torque polling CPU = %v, want ~0.9s+", cpu)
	}
	r.Stop()
}

func TestESlurmUsesFarLessThanSlurmAtScale(t *testing.T) {
	// The Fig. 9 headline at reduced scale: run both RMs for an hour of
	// heartbeats on the same cluster size and compare master meters.
	run := func(mk func(*cluster.Cluster) RM, sat int) *cluster.ResourceMeter {
		c := newCluster(8, 2000, sat)
		r := mk(c)
		r.Start()
		c.Engine.RunUntil(time.Hour)
		r.Stop()
		return r.Meter()
	}
	slurm := run(func(c *cluster.Cluster) RM { return NewCentralized(c, SlurmProfile()) }, 0)
	eslurm := run(newESlurm, 2)

	if eslurm.VMem() >= slurm.VMem()/2 {
		t.Errorf("ESlurm vmem %d not far below Slurm %d", eslurm.VMem(), slurm.VMem())
	}
	if eslurm.RSS() >= slurm.RSS() {
		t.Errorf("ESlurm rss %d not below Slurm %d", eslurm.RSS(), slurm.RSS())
	}
	if eslurm.PeakSockets() > 100 {
		t.Errorf("ESlurm peak sockets = %d, want < 100", eslurm.PeakSockets())
	}
}
