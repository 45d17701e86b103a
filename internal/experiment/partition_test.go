package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/rm"
)

func mkSlurm(c *cluster.Cluster) rm.RM  { return rm.NewCentralized(c, rm.SlurmProfile()) }
func mkSGE(c *cluster.Cluster) rm.RM    { return rm.NewCentralized(c, rm.SGEProfile()) }
func mkESlurm(c *cluster.Cluster) rm.RM { return rm.NewESlurm(c) }

// partProbeRun executes the occupation-probe sequence on a cluster
// partitioned for `shards` with digesting enabled and returns the trace
// digest, the merged metrics snapshot text, the probe results and the RM.
// It is the instrumented twin of OccupationProbe.
func partProbeRun(t *testing.T, mk func(*cluster.Cluster) rm.RM, computes, jobNodes, shards int) (uint64, string, time.Duration, time.Duration, rm.RM) {
	t.Helper()
	env := &Env{shards: shards}
	c := env.NewCluster(42, cluster.Config{Computes: computes, Satellites: 1})
	c.Group().EnableDigest()
	r := mk(c)
	r.Start()
	c.RunUntil(2 * time.Second)
	nodes := c.Computes()[:jobNodes]
	var load, term time.Duration
	start := c.Engine.Now()
	r.LoadJob(nodes, func(d time.Duration) { load = d })
	c.RunUntil(start + 30*time.Minute)
	termStart := c.Engine.Now()
	r.TerminateJob(nodes, func(d time.Duration) { term = d })
	c.RunUntil(termStart + 30*time.Minute)
	r.Stop()
	// The probe must reach the worker pool, or a worker sweep over it
	// compares the inline path with itself.
	if c.Engine.Metrics().Counter("simnet.windows_dispatched").Value() == 0 {
		t.Fatalf("shards=%d: no window was dispatched", shards)
	}
	var sb strings.Builder
	if err := c.Group().MergedMetrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return c.Group().Digest(), sb.String(), load, term, r
}

// TestPartitionSweepDeterminism is the worker-sweep gate: one full
// experiment probe per RM family, executed at 1, 2, 4 and 8 workers, must
// produce byte-identical trace digests, metrics snapshots and results. 8
// workers exceeds the 3-cell layout of a 600-node cluster, covering the
// workers > cells clamp.
func TestPartitionSweepDeterminism(t *testing.T) {
	for name, mk := range map[string]func(*cluster.Cluster) rm.RM{"Slurm": mkSlurm, "SGE": mkSGE, "ESlurm": mkESlurm} {
		refD, refM, refL, refT, _ := partProbeRun(t, mk, 600, 64, 1)
		if refL <= 0 || refT <= 0 {
			t.Fatalf("%s: probe returned load=%v term=%v, want > 0", name, refL, refT)
		}
		for _, w := range []int{2, 4, 8} {
			d, m, l, tm, _ := partProbeRun(t, mk, 600, 64, w)
			if d != refD {
				t.Errorf("%s workers=%d digest %#x, want %#x", name, w, d, refD)
			}
			if l != refL || tm != refT {
				t.Errorf("%s workers=%d load=%v term=%v, want %v/%v", name, w, l, tm, refL, refT)
			}
			if m != refM {
				t.Errorf("%s workers=%d merged metrics differ from single-worker run", name, w)
			}
		}
	}
}

// TestPartitionSweepPinned pins the partitioned probe contract for one
// configuration: any change to these values is a change to the
// deterministic trace of a partitioned run and must be made deliberately.
// The ESlurm it pins is the real one: the master split the job across
// satellite sub-tasks.
//
// The digest hashes each event's (at, seq), and seq is a label — where in
// its cell's heap insertions the event fell. It was re-pinned once (from
// 0xd61343157480aff4) when the window barrier stopped sorting a batch of
// cross-cell events by time before inserting it: a batch now goes in
// source cell by source cell, each in send order, so within one batch the
// labels are permuted. What runs when is not: a heap pops by time first,
// and between equal times by label, where insertion order was and is
// (source cell, send order) — simnet.TestShardGroupMergeOrder. The load and
// term below are the referee: they did not move.
func TestPartitionSweepPinned(t *testing.T) {
	d, _, load, term, r := partProbeRun(t, mkESlurm, 600, 64, 2)
	const wantDigest = uint64(0x45184ea881406c5a)
	if d != wantDigest {
		t.Errorf("digest %#x, want %#x", d, wantDigest)
	}
	if want := 6796460 * time.Nanosecond; load != want {
		t.Errorf("load %v, want %v", load, want)
	}
	if want := 7497588 * time.Nanosecond; term != want {
		t.Errorf("term %v, want %v", term, want)
	}
	if st := r.(*rm.ESlurm).M.Stats(); st.SubTasks == 0 {
		t.Errorf("ESlurm under -shards dispatched no satellite sub-task: %+v", st)
	}
}

// TestPartitionedOccupationNearOneCell: partitioning may move a duration
// only by the tracker's cross-cell hop and the per-cell jitter streams —
// every Fig. 7f cell stays within 5% of its one-cell value, and the
// delivery time itself, which no hop enters, within one link latency plus
// jitter.
func TestPartitionedOccupationNearOneCell(t *testing.T) {
	net := cluster.DefaultNetConfig()
	for name, mk := range map[string]func(*cluster.Cluster) rm.RM{"Slurm": mkSlurm, "SGE": mkSGE, "ESlurm": mkESlurm} {
		for _, size := range []int{16, 256} {
			l0, t0 := OccupationProbe(new(Env), mk, 600, size, 0)
			l2, t2 := OccupationProbe(&Env{shards: 2}, mk, 600, size, 0)
			occ0, occ2 := l0+10*time.Second+t0, l2+10*time.Second+t2
			if rel := math.Abs(float64(occ2-occ0)) / float64(occ0); rel > 0.05 {
				t.Errorf("%s size %d: partitioned occupation %v vs one-cell %v (%.1f%% apart, want <= 5%%)", name, size, occ2, occ0, 100*rel)
			}
			if d := (l2 - l0).Abs(); d > net.Latency+4*net.Jitter {
				t.Errorf("%s size %d: partitioned load %v vs one-cell %v, more than a latency apart", name, size, l2, l0)
			}
		}
	}
}

// TestPartitionedProbeFailureBackground checks the failure spread on a
// partitioned cluster: results stay worker-invariant with a failure
// background, and the failures actually cost something.
func TestPartitionedProbeFailureBackground(t *testing.T) {
	run := func(w int) (time.Duration, time.Duration) {
		return OccupationProbe(&Env{shards: w}, mkSlurm, 600, 64, 0.05)
	}
	healthyLoad, _ := OccupationProbe(&Env{shards: 1}, mkSlurm, 600, 64, 0)
	refL, refT := run(1)
	if refL <= healthyLoad {
		t.Errorf("load with failures %v <= healthy load %v; retries not charged", refL, healthyLoad)
	}
	for _, w := range []int{2, 8} {
		l, tm := run(w)
		if l != refL || tm != refT {
			t.Errorf("workers=%d load=%v term=%v, want %v/%v", w, l, tm, refL, refT)
		}
	}
}

// TestSingleNodePartition: a one-compute cluster still partitions (control
// cell + one single-node rack) and runs with more workers than cells.
func TestSingleNodePartition(t *testing.T) {
	env := &Env{shards: 8}
	load, term := OccupationProbe(env, mkSlurm, 1, 1, 0)
	if load <= 0 || term <= 0 {
		t.Errorf("single-node probe load=%v term=%v, want > 0", load, term)
	}
	if len(env.engines) != 2 || !env.sharded {
		t.Errorf("env took in %d engines (sharded=%v), want 2 cells", len(env.engines), env.sharded)
	}
}

// TestFig7fPartitionedTable renders a small Fig. 7f at two worker counts
// and requires byte-identical reports.
func TestFig7fPartitionedTable(t *testing.T) {
	render := func(w int) string {
		var sb strings.Builder
		Fig7f(&Env{shards: w}, 600, []int{16, 64}).Fprint(&sb)
		return sb.String()
	}
	a, b := render(1), render(4)
	if a != b {
		t.Errorf("fig7f report differs between 1 and 4 workers:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "ESlurm") {
		t.Errorf("fig7f report missing expected rows:\n%s", a)
	}
}
