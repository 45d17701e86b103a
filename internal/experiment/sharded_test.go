package experiment

import (
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/rm"
)

// shardProbeRun executes the full occupation-probe sequence on the
// sharded kernel with digesting enabled and returns the trace digest,
// the merged metrics snapshot text and the probe results. It is the
// instrumented twin of ShardedOccupationProbe.
func shardProbeRun(t *testing.T, rmName string, computes, jobNodes, workers int) (uint64, string, time.Duration, time.Duration) {
	t.Helper()
	sc := newShardedCluster(new(Env), computes, probeSatellites(computes), workers, 42)
	g := sc.Group()
	g.EnableDigest()
	r := rm.NewShardedByName(rmName, sc)
	r.Start()
	g.RunUntil(2 * time.Second)
	nodes := sc.Computes()[:jobNodes]
	var load, term time.Duration
	start := g.Cell(0).Now()
	r.LoadJob(nodes, func(d time.Duration) { load = d })
	g.RunUntil(start + 30*time.Minute)
	termStart := g.Cell(0).Now()
	r.TerminateJob(nodes, func(d time.Duration) { term = d })
	g.RunUntil(termStart + 30*time.Minute)
	r.Stop()
	var sb strings.Builder
	if err := g.MergedMetrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return g.Digest(), sb.String(), load, term
}

// TestShardSweepDeterminism is the shard-sweep gate of the sharded
// kernel: one full experiment probe per RM family, executed at 1, 2, 4
// and 8 workers, must produce byte-identical trace digests, metrics
// snapshots and results. 8 workers exceeds the 3-cell layout of a
// 600-node cluster, covering the workers > cells clamp.
func TestShardSweepDeterminism(t *testing.T) {
	for _, name := range []string{"Slurm", "ESlurm"} {
		refD, refM, refL, refT := shardProbeRun(t, name, 600, 64, 1)
		if refL <= 0 || refT <= 0 {
			t.Fatalf("%s: probe returned load=%v term=%v, want > 0", name, refL, refT)
		}
		for _, w := range []int{2, 4, 8} {
			d, m, l, tm := shardProbeRun(t, name, 600, 64, w)
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

// TestShardSweepPinned pins the sharded probe contract for one
// configuration: any change to these values is a change to the sharded
// kernel's deterministic trace and must be made deliberately.
func TestShardSweepPinned(t *testing.T) {
	d, _, load, term := shardProbeRun(t, "ESlurm", 600, 64, 2)
	const wantDigest = uint64(0x88b136cf0563b272)
	if d != wantDigest {
		t.Errorf("digest %#x, want %#x", d, wantDigest)
	}
	if want := 2391998 * time.Nanosecond; load != want {
		t.Errorf("load %v, want %v", load, want)
	}
	if want := 2414449 * time.Nanosecond; term != want {
		t.Errorf("term %v, want %v", term, want)
	}
}

// TestShardProbeFailureBackground checks the pre-scheduled failure
// spread: results stay worker-invariant with a failure background, and
// the failures actually cost something.
func TestShardProbeFailureBackground(t *testing.T) {
	run := func(w int) (time.Duration, time.Duration) {
		return ShardedOccupationProbe(new(Env), "Slurm", 600, 64, 0.05, w)
	}
	healthyLoad, _ := ShardedOccupationProbe(new(Env), "Slurm", 600, 64, 0, 1)
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

// TestShardLayoutEdges covers the partitioning rule's boundary shapes.
func TestShardLayoutEdges(t *testing.T) {
	cells, cellOf := shardLayout(1, 1)
	if cells != 2 {
		t.Errorf("1-compute layout: %d cells, want 2 (control + one single-node rack)", cells)
	}
	if c := cellOf(2, cluster.RoleCompute); c != 1 { // compute NodeID 2 (after master 0 + sat 1)
		t.Errorf("single compute on cell %d, want 1", c)
	}
	cells, _ = shardLayout(513, 1)
	if cells != 3 {
		t.Errorf("513-compute layout: %d cells, want 3 (rack boundary spill)", cells)
	}
	// A single-node shard must still run: 1 compute, more workers than cells.
	load, term := ShardedOccupationProbe(new(Env), "Slurm", 1, 1, 0, 8)
	if load <= 0 || term <= 0 {
		t.Errorf("single-node probe load=%v term=%v, want > 0", load, term)
	}
}

// TestFig7fShardedTable renders a small sharded Fig. 7f at two worker
// counts and requires byte-identical reports.
func TestFig7fShardedTable(t *testing.T) {
	render := func(w int) string {
		var sb strings.Builder
		Fig7fSharded(new(Env), 600, []int{16, 64}, w).Fprint(&sb)
		return sb.String()
	}
	a, b := render(1), render(4)
	if a != b {
		t.Errorf("fig7f report differs between 1 and 4 workers:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "ESlurm") || !strings.Contains(a, "sharded kernel") {
		t.Errorf("fig7f report missing expected rows/note:\n%s", a)
	}
}
