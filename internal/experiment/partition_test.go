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

// What partitioning may do to a duration (DESIGN.md §4): move it by one
// link latency plus four jitter draws — the cross-cell hop and the per-cell
// jitter streams — or, where hops compound, by partitionRel of its
// one-cell value.
const partitionRel = 0.05

func partitionAbs() time.Duration {
	net := cluster.DefaultNetConfig()
	return net.Latency + 4*net.Jitter
}

// nearOneCell reports whether a partitioned duration stays within what
// partitioning may change of its one-cell value.
func nearOneCell(one, part time.Duration) bool {
	d := (part - one).Abs()
	return d <= partitionAbs() || float64(d) <= partitionRel*float64(one)
}

// partProbeRun executes the occupation-probe sequence on a rack-partitioned
// cluster with digesting enabled and returns the trace digest, the probe
// results and the RM. It is the instrumented twin of OccupationProbe, but
// runs each phase to its 30 min horizon rather than to the answer, so the
// pinned digest also covers the idle heartbeats that follow it.
func partProbeRun(t *testing.T, mk func(*cluster.Cluster) rm.RM, computes, jobNodes int) (uint64, time.Duration, time.Duration, rm.RM) {
	t.Helper()
	env := &Env{cells: true}
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
	return c.Group().Digest(), load, term, r
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
	d, load, term, r := partProbeRun(t, mkESlurm, 600, 64)
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
		t.Errorf("partitioned ESlurm dispatched no satellite sub-task: %+v", st)
	}
}

// TestPartitionedOccupationNearOneCell: partitioning may move a duration
// only by the tracker's cross-cell hop and the per-cell jitter streams —
// every Fig. 7f cell stays within partitionRel of its one-cell value, and
// the delivery time itself, which no hop enters, within partitionAbs.
func TestPartitionedOccupationNearOneCell(t *testing.T) {
	for name, mk := range map[string]func(*cluster.Cluster) rm.RM{"Slurm": mkSlurm, "SGE": mkSGE, "ESlurm": mkESlurm} {
		for _, size := range []int{16, 256} {
			l0, t0 := OccupationProbe(new(Env), mk, 600, size, 0)
			l2, t2 := OccupationProbe(&Env{cells: true}, mk, 600, size, 0)
			occ0, occ2 := l0+10*time.Second+t0, l2+10*time.Second+t2
			if rel := math.Abs(float64(occ2-occ0)) / float64(occ0); rel > partitionRel {
				t.Errorf("%s size %d: partitioned occupation %v vs one-cell %v (%.1f%% apart, want <= %.0f%%)", name, size, occ2, occ0, 100*rel, 100*partitionRel)
			}
			if d := (l2 - l0).Abs(); d > partitionAbs() {
				t.Errorf("%s size %d: partitioned load %v vs one-cell %v, more than a latency apart", name, size, l2, l0)
			}
		}
	}
}

// TestPartitionedProbeFailureBackground checks the failure spread on a
// partitioned cluster: the failures actually cost something.
func TestPartitionedProbeFailureBackground(t *testing.T) {
	healthyLoad, _ := OccupationProbe(&Env{cells: true}, mkSlurm, 600, 64, 0)
	load, term := OccupationProbe(&Env{cells: true}, mkSlurm, 600, 64, 0.05)
	if load <= healthyLoad {
		t.Errorf("load with failures %v <= healthy load %v; retries not charged", load, healthyLoad)
	}
	if term <= 0 {
		t.Errorf("term with failures = %v, want > 0", term)
	}
}

// TestSingleNodePartition: a one-compute cluster still partitions (control
// cell + one single-node rack).
func TestSingleNodePartition(t *testing.T) {
	env := &Env{cells: true}
	load, term := OccupationProbe(env, mkSlurm, 1, 1, 0)
	if load <= 0 || term <= 0 {
		t.Errorf("single-node probe load=%v term=%v, want > 0", load, term)
	}
	if len(env.engines) != 2 || !env.sharded {
		t.Errorf("env took in %d engines (sharded=%v), want 2 cells", len(env.engines), env.sharded)
	}
}

// TestFig7fPartitionedTable renders a small Fig. 7f on rack cells: every
// RM row is there and every cell is near its one-cell value.
func TestFig7fPartitionedTable(t *testing.T) {
	one := Fig7f(new(Env), 600, []int{16, 64})
	part := Fig7f(&Env{cells: true}, 600, []int{16, 64})
	compareTables(t, "fig7f", []*Table{one}, []*Table{part})
	var sb strings.Builder
	part.Fprint(&sb)
	if !strings.Contains(sb.String(), "ESlurm") {
		t.Errorf("fig7f report missing expected rows:\n%s", sb.String())
	}
}

// TestPartitionOracle is the one-cell oracle for every simulated registry
// entry: run at Params.Shards 0 and 1, the rendered tables have the same
// shape, and every cell is byte-equal or a duration within what
// partitioning may change of its one-cell value (nearOneCell). That every
// entry building a cluster ran partitioned is TestEnvAccountsEveryExperiment's.
func TestPartitionOracle(t *testing.T) {
	p := runnerParams()
	specs := fastRegistry()
	one := RunConcurrent(specs, p, 2, nil)
	p.Shards = 1
	part := RunConcurrent(specs, p, 2, nil)
	for i, s := range specs {
		compareTables(t, s.ID, one[i].Tables, part[i].Tables)
	}
}

// compareTables fails t unless part has one's shape and every cell of it
// is byte-equal to one's or a duration near it.
func compareTables(t *testing.T, id string, one, part []*Table) {
	t.Helper()
	if len(one) != len(part) {
		t.Fatalf("%s: %d tables partitioned, %d on one cell", id, len(part), len(one))
	}
	for k, a := range one {
		b := part[k]
		if b.ID != a.ID || strings.Join(b.Columns, "|") != strings.Join(a.Columns, "|") || len(b.Rows) != len(a.Rows) {
			t.Errorf("%s: table %s partitioned has a different shape", id, a.ID)
			continue
		}
		for r, row := range a.Rows {
			if len(b.Rows[r]) != len(row) {
				t.Errorf("%s: table %s row %d has %d cells partitioned, %d on one cell", id, a.ID, r, len(b.Rows[r]), len(row))
				continue
			}
			for c, cell := range row {
				got := b.Rows[r][c]
				if got == cell {
					continue
				}
				d0, err0 := time.ParseDuration(cell)
				d1, err1 := time.ParseDuration(got)
				if err0 != nil || err1 != nil || !nearOneCell(d0, d1) {
					t.Errorf("%s: table %s row %d %q: partitioned %q, one cell %q", id, a.ID, r, a.Columns[c], got, cell)
				}
			}
		}
	}
}
