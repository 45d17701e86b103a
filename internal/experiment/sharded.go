package experiment

import (
	"fmt"
	"sort"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/rm"
	"eslurm/internal/sched"
	"eslurm/internal/topo"
)

// Sharded experiment drivers: the two multi-second experiments (fig7f,
// fig10) rebuilt on the shard-parallel kernel. The partitioning rule is
// topological — cell 0 holds the control plane (master + satellites),
// and every compute rack is its own cell — so the cell layout is a
// function of the cluster size alone and the digests are invariant
// under the worker count (`-shards N` picks N workers; it never moves a
// node between cells).
//
// The sharded drivers are twins, not byte-replays, of the single-engine
// experiments: the wire model adds acknowledgement latency (see
// comm.ShardBroadcaster), so their absolute durations form their own
// pinned contract, checked by the shard-sweep determinism tests.

// shardLayout returns the cell count and node→cell mapping for a
// cluster of the given shape: control plane on cell 0, computes by rack
// (512 nodes per rack under the default Tianhe-like hierarchy).
func shardLayout(computes, satellites int) (cells int, cellOf func(cluster.NodeID, cluster.Role) int) {
	tp := topo.Default()
	per := tp.NodesPerRack()
	racks := (computes + per - 1) / per
	if racks < 1 {
		racks = 1
	}
	firstCompute := 1 + satellites
	return 1 + racks, func(id cluster.NodeID, role cluster.Role) int {
		if role != cluster.RoleCompute {
			return 0
		}
		return 1 + tp.Rack(cluster.NodeID(int(id)-firstCompute))
	}
}

// newShardedCluster builds the probe cluster for a sharded experiment and
// hands its cells to env.
func newShardedCluster(env *Env, clusterNodes, satellites, workers int, seed int64) *cluster.ShardedCluster {
	cells, cellOf := shardLayout(clusterNodes, satellites)
	sc := cluster.NewSharded(cluster.ShardConfig{
		Computes:   clusterNodes,
		Satellites: satellites,
		Cells:      cells,
		CellOf:     cellOf,
		Workers:    workers,
		Seed:       seed,
	})
	env.AdoptGroup(sc.Group())
	return sc
}

// probeSatellites mirrors the satellite sizing rule of OccupationProbe.
func probeSatellites(clusterNodes int) int {
	if clusterNodes >= 1024 {
		return 2 + clusterNodes/5120
	}
	return 1
}

// ShardedOccupationProbe is the sharded twin of OccupationProbe: it
// measures the named RM's job load and termination latencies for one
// job of the given size, with failedFrac of the job's nodes down,
// executing the simulation across rack cells on `workers` goroutines.
// The result is independent of workers.
func ShardedOccupationProbe(env *Env, rmName string, clusterNodes, jobNodes int, failedFrac float64, workers int) (load, term time.Duration) {
	sc := newShardedCluster(env, clusterNodes, probeSatellites(clusterNodes), workers, 42)
	g := sc.Group()
	r := rm.NewShardedByName(rmName, sc)
	r.Start()
	g.RunUntil(2 * time.Second)
	if failedFrac > 0 {
		// The same spread rule as failSpread, pre-scheduled at the
		// current instant on every cell.
		comps := sc.Computes()
		count := int(float64(jobNodes) * failedFrac)
		stride := 1
		if count > 0 {
			stride = len(comps) / count
			if stride == 0 {
				stride = 1
			}
		}
		now := g.Cell(0).Now()
		for i := 0; i < count && i*stride < len(comps); i++ {
			sc.ScheduleFail(comps[i*stride], now, 0)
		}
		g.RunUntil(now)
	}
	nodes := sc.Computes()[:jobNodes]
	start := g.Cell(0).Now()
	r.LoadJob(nodes, func(d time.Duration) { load = d })
	g.RunUntil(start + 30*time.Minute)
	termStart := g.Cell(0).Now()
	r.TerminateJob(nodes, func(d time.Duration) { term = d })
	g.RunUntil(termStart + 30*time.Minute)
	r.Stop()
	return load, term
}

// ShardedOccupationTime is the sharded twin of OccupationTime.
func ShardedOccupationTime(env *Env, rmName string, clusterNodes, jobNodes, workers int) time.Duration {
	load, term := ShardedOccupationProbe(env, rmName, clusterNodes, jobNodes, 0, workers)
	return load + 10*time.Second + term
}

// fig7fRMNames lists the Fig. 7f contenders in row order.
func fig7fRMNames() []string {
	return []string{"SGE", "Torque", "OpenPBS", "LSF", "Slurm", "ESlurm"}
}

// Fig7fSharded is the sharded twin of Fig7f, running each occupation
// probe across rack cells on `workers` goroutines.
func Fig7fSharded(env *Env, clusterNodes int, sizes []int, workers int) *Table {
	if len(sizes) == 0 {
		sizes = []int{64, 256, 1024, 2048, 4096}
	}
	t := &Table{
		ID:      "fig7f",
		Title:   fmt.Sprintf("Job occupation time vs job size (%d-node cluster, 10s jobs, sharded kernel)", clusterNodes),
		Columns: append([]string{"RM"}, sizesHeader(sizes)...),
	}
	for _, name := range fig7fRMNames() {
		row := []string{name}
		for _, size := range sizes {
			if size > clusterNodes {
				row = append(row, "-")
				continue
			}
			row = append(row, fmtDur(ShardedOccupationTime(env, name, clusterNodes, size, workers)))
		}
		t.AddRow(row...)
	}
	t.Note = "sharded kernel (ack-based wire model): occupation includes acknowledgement latency; shapes match the single-engine run"
	return t
}

// shardedOverheadLookup is the sharded twin of overheadLookup.
func shardedOverheadLookup(env *Env, rmName string, clusterNodes int, failedFrac float64, workers int) sched.Overhead {
	var sizes []int
	for _, s := range []int{16, 64, 256, 1024, 4096, 16384} {
		if s < clusterNodes {
			sizes = append(sizes, s)
		}
	}
	sizes = append(sizes, clusterNodes)
	loads := make([]time.Duration, len(sizes))
	terms := make([]time.Duration, len(sizes))
	for i, s := range sizes {
		loads[i], terms[i] = ShardedOccupationProbe(env, rmName, clusterNodes, s, failedFrac, workers)
	}
	return func(n int) (time.Duration, time.Duration) {
		if n <= sizes[0] {
			return loads[0], terms[0]
		}
		i := sort.SearchInts(sizes, n)
		if i >= len(sizes) {
			return loads[len(sizes)-1], terms[len(sizes)-1]
		}
		if sizes[i] == n || i == 0 {
			return loads[i], terms[i]
		}
		f := float64(n-sizes[i-1]) / float64(sizes[i]-sizes[i-1])
		lerp := func(a, b time.Duration) time.Duration {
			return a + time.Duration(f*float64(b-a))
		}
		return lerp(loads[i-1], loads[i]), lerp(terms[i-1], terms[i])
	}
}

// Fig10Sharded is the sharded twin of Fig10: identical scheduler replay,
// with the per-RM communication overheads probed on the sharded kernel.
func Fig10Sharded(env *Env, scales []int, jobsPerScale, workers int) []*Table {
	if len(scales) == 0 {
		scales = []int{1024, 4096, 16384, 20480}
	}
	if jobsPerScale == 0 {
		jobsPerScale = 6000
	}
	util := &Table{ID: "fig10a", Title: "System utilization (higher is better, sharded kernel)"}
	wait := &Table{ID: "fig10b", Title: "Average job waiting time (lower is better, sharded kernel)"}
	slow := &Table{ID: "fig10c", Title: "Average bounded slowdown (lower is better, sharded kernel)"}
	cols := []string{"RM"}
	for _, s := range scales {
		cols = append(cols, fmt.Sprintf("%d nodes", s))
	}
	util.Columns, wait.Columns, slow.Columns = cols, cols, cols

	contenders := []struct {
		name     string
		maxScale int
	}{
		{"SGE", 1024},
		{"Torque", 1024},
		{"OpenPBS", 4096},
		{"LSF", 4096},
		{"Slurm", 1 << 30},
		{"ESlurm", 1 << 30},
	}
	for _, ct := range contenders {
		uRow, wRow, sRow := []string{ct.name}, []string{ct.name}, []string{ct.name}
		for _, scale := range scales {
			if scale > ct.maxScale {
				uRow, wRow, sRow = append(uRow, "-"), append(wRow, "-"), append(sRow, "-")
				continue
			}
			res := runFig10CellSharded(env, ct.name, scale, jobsPerScale, workers)
			uRow = append(uRow, fmtPct(res.Utilization))
			wRow = append(wRow, fmtDur(res.AvgWait))
			sRow = append(sRow, fmt.Sprintf("%.1f", res.AvgBoundedSlowdown))
		}
		util.AddRow(uRow...)
		wait.AddRow(wRow...)
		slow.AddRow(sRow...)
	}
	note := "sharded kernel: same replay and penalties as fig10, communication overheads probed on the multi-cell substrate"
	util.Note, wait.Note, slow.Note = note, note, note
	return []*Table{util, wait, slow}
}

// runFig10CellSharded mirrors runFig10Cell with sharded probes. The
// scheduler replay itself (sched.Run) is shared.
func runFig10CellSharded(env *Env, name string, scale, jobs, workers int) sched.Result {
	penalty := responsePenalty(name, scale)
	base := shardedOverheadLookup(env, name, scale, 0.01, workers)
	cfg := fig10SchedConfig(env, name, scale, withPenalty(base, penalty))
	return sched.Run(scaleTrace(scale, jobs), cfg)
}
