package experiment

import "time"

// Params sizes every experiment. PaperParams reproduces the paper's node
// counts and (where feasible) horizons; QuickParams shrinks horizons and
// trace sizes so the full suite runs in a couple of minutes while keeping
// the paper's node counts for the communication experiments, whose cost is
// per-broadcast rather than per-hour.
type Params struct {
	// Trace sizes.
	Fig5Jobs   int
	Fig11bJobs int
	Table8Jobs int
	// Resource runs.
	Fig7Nodes int
	Fig7Span  time.Duration
	Fig9Nodes int
	Fig9Span  time.Duration
	T56Nodes  int
	T56Span   time.Duration
	T56Sats   []int
	// Communication experiments.
	Fig7fNodes  int
	Fig8Nodes   int
	Fig11aNodes int
	PlaceNodes  int
	PlaceDays   int
	// Scheduling experiments.
	Fig10Scales   []int
	Fig10Jobs     int
	AblationScale int
	AblationJobs  int
	// Shards is ignored: every experiment runs each cluster on one
	// engine. It is kept only because the benchmark module sets it by
	// name; the benchmark's next change deletes it.
	Shards int
}

// QuickParams returns the fast preset used by tests and the default
// benchrunner invocation.
func QuickParams() Params {
	return Params{
		Fig5Jobs: 12000, Fig11bJobs: 5000, Table8Jobs: 3000,
		Fig7Nodes: 1024, Fig7Span: 20 * time.Minute,
		Fig9Nodes: 4096, Fig9Span: 20 * time.Minute,
		T56Nodes: 5120, T56Span: 30 * time.Minute, T56Sats: []int{4, 8, 12, 16, 20},
		Fig7fNodes: 2048, Fig8Nodes: 2048, Fig11aNodes: 5120,
		PlaceNodes: 1024, PlaceDays: 1,
		Fig10Scales: []int{256, 1024}, Fig10Jobs: 2500,
		AblationScale: 1024, AblationJobs: 2500,
	}
}

// PaperParams returns the paper-scale preset: the exact node counts of
// Section VII with horizons shortened from 24 h/10 days to a few virtual
// hours (rates extrapolate; see table notes).
func PaperParams() Params {
	return Params{
		Fig5Jobs: 50000, Fig11bJobs: 20000, Table8Jobs: 12000,
		Fig7Nodes: 4096, Fig7Span: 4 * time.Hour,
		Fig9Nodes: 16384, Fig9Span: 4 * time.Hour,
		T56Nodes: 20480, T56Span: 2 * time.Hour, T56Sats: []int{10, 20, 30, 40, 50},
		Fig7fNodes: 4096, Fig8Nodes: 4096, Fig11aNodes: 20480,
		PlaceNodes: 4096, PlaceDays: 10,
		Fig10Scales: []int{1024, 4096, 16384, 20480}, Fig10Jobs: 8000,
		AblationScale: 20480, AblationJobs: 8000,
	}
}

// Spec is one runnable experiment.
type Spec struct {
	// ID matches the DESIGN.md experiment index ("fig8b", "table5", ...).
	ID string
	// Artifact names the paper table/figure reproduced.
	Artifact string
	// Run executes the experiment at the given scale, obtaining every
	// engine it simulates on from env.
	Run func(env *Env, p Params) []*Table
}

// Registry lists every experiment in evaluation order.
func Registry() []Spec {
	return []Spec{
		{"table1", "Table I", func(env *Env, p Params) []*Table { return []*Table{Table1()} }},
		{"fig5", "Fig. 5a-c", func(env *Env, p Params) []*Table { return Fig5(p.Fig5Jobs) }},
		{"fig7", "Fig. 7a-e", func(env *Env, p Params) []*Table { return []*Table{Fig7(env, p.Fig7Nodes, p.Fig7Span)} }},
		{"fig7f", "Fig. 7f", func(env *Env, p Params) []*Table { return []*Table{Fig7f(env, p.Fig7fNodes, nil)} }},
		{"fig8a", "Fig. 8a", func(env *Env, p Params) []*Table { return []*Table{Fig8a(env, p.Fig8Nodes)} }},
		{"fig8b", "Fig. 8b", func(env *Env, p Params) []*Table { return []*Table{Fig8b(env, p.Fig8Nodes, nil)} }},
		{"placement", "§VII-A placement stats", func(env *Env, p Params) []*Table {
			return []*Table{Placement(env, p.PlaceNodes, p.PlaceDays)}
		}},
		{"fig9", "Fig. 9a-f", func(env *Env, p Params) []*Table { return Fig9(env, p.Fig9Nodes, p.Fig9Span) }},
		{"table5", "Tables V-VI", func(env *Env, p Params) []*Table {
			return Tables5and6(env, p.T56Nodes, p.T56Sats, p.T56Span)
		}},
		{"fig11a", "Fig. 11a", func(env *Env, p Params) []*Table {
			return []*Table{Fig11a(env, p.Fig11aNodes, nil)}
		}},
		{"fig10", "Fig. 10a-c", func(env *Env, p Params) []*Table { return Fig10(env, p.Fig10Scales, p.Fig10Jobs) }},
		{"ablation", "§VII-D contributions", func(env *Env, p Params) []*Table {
			return []*Table{Ablation(env, p.AblationScale, p.AblationJobs)}
		}},
		{"table8", "Table VIII", func(env *Env, p Params) []*Table { return []*Table{Table8(env, p.Table8Jobs)} }},
		{"fig11b", "Fig. 11b", func(env *Env, p Params) []*Table { return []*Table{Fig11b(env, p.Fig11bJobs)} }},
		{"ablation-width", "design sweep (not in paper)", func(env *Env, p Params) []*Table {
			return []*Table{AblationTreeWidth(env, p.Fig8Nodes, nil)}
		}},
		{"ablation-realloc", "design sweep (not in paper)", func(env *Env, p Params) []*Table {
			return []*Table{AblationReallocLimit(env, p.Fig8Nodes, nil)}
		}},
		{"ablation-topo", "§IV-E composition (not in paper)", func(env *Env, p Params) []*Table {
			return []*Table{AblationTopology(env, p.Fig8Nodes, 0.02)}
		}},
		{"rack-outage", "correlated-failure stress (not in paper)", func(env *Env, p Params) []*Table {
			return []*Table{RackOutage(env, p.Fig8Nodes)}
		}},
	}
}

// Lookup finds a spec by ID; ok is false for unknown IDs. "table6" aliases
// "table5" since the two tables come from the same runs.
func Lookup(id string) (Spec, bool) {
	if id == "table6" {
		id = "table5"
	}
	for _, s := range Registry() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}
