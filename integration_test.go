// Integration tests: run miniature versions of every registered experiment
// end-to-end, guarding the whole pipeline (trace generation → simulation →
// drivers → table rendering) rather than any single package.
package eslurm_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/experiment"
	"eslurm/internal/rm"
	"eslurm/internal/simnet"
)

// tinyParams shrinks every experiment far below the quick preset so the
// whole registry runs in seconds under `go test`.
func tinyParams() experiment.Params {
	return experiment.Params{
		Fig5Jobs: 3000, Fig11bJobs: 1200, Table8Jobs: 0, // Table8 handled separately
		Fig7Nodes: 256, Fig7Span: 5 * time.Minute,
		Fig9Nodes: 512, Fig9Span: 5 * time.Minute,
		T56Nodes: 512, T56Span: 10 * time.Minute, T56Sats: []int{2, 4},
		Fig7fNodes: 256, Fig8Nodes: 256, Fig11aNodes: 512,
		PlaceNodes: 256, PlaceDays: 1,
		Fig10Scales: []int{128}, Fig10Jobs: 400,
		AblationScale: 128, AblationJobs: 400,
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	p := tinyParams()
	for _, spec := range experiment.Registry() {
		spec := spec
		if spec.ID == "table8" || spec.ID == "fig11b" {
			// The estimator replays are the slow ones; they get their own
			// richer tests in internal/estimate and internal/experiment.
			continue
		}
		t.Run(spec.ID, func(t *testing.T) {
			tables := spec.Run(new(experiment.Env), p)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.ID == "" || tb.Title == "" {
					t.Errorf("table missing identity: %+v", tb)
				}
				if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Errorf("table %s has no data", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) > len(tb.Columns) {
						t.Errorf("table %s row wider than header: %v", tb.ID, row)
					}
					for _, cell := range row {
						if strings.TrimSpace(cell) == "" {
							t.Errorf("table %s has an empty cell in %v", tb.ID, row)
						}
					}
				}
				var sb strings.Builder
				tb.Fprint(&sb)
				if !strings.Contains(sb.String(), tb.ID) {
					t.Errorf("rendered table missing its ID")
				}
			}
		})
	}
}

// fullStackDigest runs a complete ESlurm stack (cluster + satellites +
// RM + job flow) for a stretch of virtual time and returns (a) an FNV
// digest of the engine's full event trace — every executed event's
// (time, seq) pair in execution order — and (b) a rendering of the final
// metrics. Identical seeds must yield identical digests bit for bit;
// this is the determinism contract the internal/lint rules statically
// enforce.
func fullStackDigest(seed int64) (trace string, metrics string) {
	const nodes = 128
	span := 20 * time.Minute

	e := simnet.NewEngine(seed)
	h := fnv.New64a()
	e.Observe(func(at time.Duration, seq uint64) {
		fmt.Fprintf(h, "%d:%d;", int64(at), seq)
	})
	c := cluster.New(e, cluster.Config{Computes: nodes, Satellites: 2})
	r := rm.NewESlurm(c)
	r.Start()

	rng := e.Rand("integration/determinism")
	var submit func()
	submit = func() {
		gap := time.Duration(30+rng.ExpFloat64()*70) * time.Second
		e.After(gap, func() {
			if e.Now() > span {
				return
			}
			size := int(math.Exp(rng.NormFloat64()*1.2+3.0)) + 1
			if size > nodes/2 {
				size = nodes / 2
			}
			jobNodes := c.Computes()[:size]
			r.LoadJob(jobNodes, func(time.Duration) {
				runFor := time.Duration(10+rng.ExpFloat64()*110) * time.Second
				e.After(runFor, func() {
					r.TerminateJob(jobNodes, func(time.Duration) {})
				})
			})
			submit()
		})
	}
	submit()

	e.RunUntil(span)
	r.Stop()
	e.RunUntil(span + 10*time.Minute)

	m := r.Meter()
	metrics = fmt.Sprintf("events=%d cpu=%v vmem=%d rss=%d sockets=%.6f peak=%d",
		e.Processed(), m.CPUTime(), m.VMem(), m.RSS(), m.AvgSockets(), m.PeakSockets())
	return fmt.Sprintf("%016x", h.Sum64()), metrics
}

// TestFullStackDeterminism is the regression test behind the lint gate
// (internal/lint): the same seed twice must reproduce the exact event
// trace and final metrics, and a different seed must actually change the
// run.
func TestFullStackDeterminism(t *testing.T) {
	trace1, metrics1 := fullStackDigest(42)
	trace2, metrics2 := fullStackDigest(42)
	if trace1 != trace2 {
		t.Errorf("event-trace digests differ for the same seed: %s vs %s", trace1, trace2)
	}
	if metrics1 != metrics2 {
		t.Errorf("final metrics differ for the same seed:\n%s\n%s", metrics1, metrics2)
	}
	trace3, _ := fullStackDigest(43)
	if trace3 == trace1 {
		t.Errorf("different seeds produced the same event-trace digest %s; the seed is not wired through", trace1)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs drivers twice")
	}
	// The same driver at the same params yields byte-identical tables.
	p := tinyParams()
	for _, id := range []string{"fig8b", "fig7f", "placement"} {
		spec, ok := experiment.Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		render := func() string {
			var sb strings.Builder
			for _, tb := range spec.Run(new(experiment.Env), p) {
				tb.Fprint(&sb)
			}
			return sb.String()
		}
		a, b := render(), render()
		if a != b {
			t.Errorf("%s is nondeterministic:\n%s\n---\n%s", id, a, b)
		}
	}
}
