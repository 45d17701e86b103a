package experiment

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/faults"
	"eslurm/internal/monitor"
	"eslurm/internal/predict"
	"eslurm/internal/topo"
)

// RackOutage is a beyond-the-paper experiment: a whole rack loses power,
// taking a *contiguous* block of node IDs down — the worst case for an
// ID-ordered relay tree, whose dead rack forms entire dead subtrees and
// triggers cascading parent adoptions. The FP-Tree with the alert-driven
// predictor absorbs the same outage by pinning the whole rack to leaf
// positions.
func RackOutage(env *Env, nodes int) *Table {
	tp := topo.Default()
	t := &Table{
		ID:      "rack-outage",
		Title:   fmt.Sprintf("Broadcast during a full rack outage (%d nodes, %d-node rack dead)", nodes, tp.NodesPerRack()),
		Columns: []string{"structure", "clean", "during outage"},
	}

	run := func(env *Env, s comm.Structure, outage bool) time.Duration {
		c := env.NewCluster(53, cluster.Config{Computes: nodes, Satellites: 1})
		sub := monitor.New(c, monitor.Config{DetectionProb: 1.0})
		pred := predict.NewAlertDriven(c.Engine, sub, time.Hour)
		if fp, ok := s.(comm.FPTree); ok {
			fp.Predictor = pred
			s = fp
		}
		if outage {
			campaign := faults.New(c, sub, 0)
			campaign.RackOutage(tp, 1, 30*time.Minute, 4*time.Hour)
		}
		// Broadcast one hour in: the rack is down, alerts have landed.
		var res comm.Result
		c.Engine.Schedule(time.Hour, func() {
			b := comm.NewBroadcaster(c)
			s.Broadcast(b, c.Satellites()[0], c.Computes(), 4096, func(r comm.Result) { res = r })
		})
		c.RunUntil(3 * time.Hour)
		return res.DeliveredElapsed
	}

	structures := []comm.Structure{comm.KTree{}, comm.FPTree{}}
	rows := sideBySide(env, len(structures), func(i int, env *Env) []string {
		s := structures[i]
		return []string{s.Name(), fmtDur(run(env, s, false)), fmtDur(run(env, s, true))}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note = "a dead rack is a contiguous ID block: entire subtrees die and the plain tree pays cascaded adoptions; the FP-Tree pins the rack to leaves"
	return t
}
