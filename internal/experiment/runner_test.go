package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/obs/critpath"
	"eslurm/internal/testutil"
)

// runnerParams shrinks every experiment far enough that the full registry
// completes in seconds; the quick-preset comparison below is the
// full-strength version of the same contract.
func runnerParams() Params {
	return Params{
		Fig5Jobs: 2000, Fig11bJobs: 800, Table8Jobs: 600,
		Fig7Nodes: 256, Fig7Span: 5 * time.Minute,
		Fig9Nodes: 512, Fig9Span: 5 * time.Minute,
		T56Nodes: 512, T56Span: 10 * time.Minute, T56Sats: []int{2, 4},
		Fig7fNodes: 256, Fig8Nodes: 256, Fig11aNodes: 512,
		PlaceNodes: 256, PlaceDays: 1,
		Fig10Scales: []int{128}, Fig10Jobs: 400,
		AblationScale: 128, AblationJobs: 400,
	}
}

// renderEmitted renders every table in emit order — exactly the bytes
// benchrunner sends to stdout.
func renderEmitted(specs []Spec, p Params, parallel int) string {
	var sb strings.Builder
	RunConcurrent(specs, p, parallel, func(r Result) {
		for _, tb := range r.Tables {
			tb.Fprint(&sb)
		}
	})
	return sb.String()
}

// fastRegistry drops the two estimator replays, which dominate runtime
// and create no engines (they are covered by the quick-preset test).
func fastRegistry() []Spec {
	var specs []Spec
	for _, s := range Registry() {
		if s.ID == "table8" || s.ID == "fig11b" {
			continue
		}
		specs = append(specs, s)
	}
	return specs
}

// TestRunConcurrentMatchesSerial is the determinism contract across the
// pool: the rendered output of a parallel run must be byte-identical to a
// serial run. The race detector covers the pool itself here.
func TestRunConcurrentMatchesSerial(t *testing.T) {
	specs := fastRegistry()
	p := runnerParams()
	serial := renderEmitted(specs, p, 1)
	parallel := renderEmitted(specs, p, 8)
	if serial != parallel {
		t.Fatalf("parallel output diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("no output rendered")
	}
}

// TestRunConcurrentMatchesSerialQuick runs the same contract at the quick
// preset — the exact bytes `benchrunner -all` prints — with the full
// registry.
func TestRunConcurrentMatchesSerialQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick-preset suite twice")
	}
	if testutil.RaceEnabled {
		// Two full quick-preset suite runs exceed the race detector's
		// 5-10× slowdown budget (the package would blow go test's default
		// 10-minute timeout). The pool's race coverage comes from
		// TestRunConcurrentMatchesSerial over the fast registry.
		t.Skip("quick-preset double run is too slow under -race")
	}
	specs := Registry()
	p := QuickParams()
	serial := renderEmitted(specs, p, 1)
	parallel := renderEmitted(specs, p, 8)
	if serial != parallel {
		t.Fatal("quick-preset parallel output diverged from serial")
	}
}

// TestRunConcurrentEmitOrder: emit must see every spec exactly once, in
// registry order, regardless of completion order in the pool.
func TestRunConcurrentEmitOrder(t *testing.T) {
	specs := fastRegistry()
	var emitted []string
	results := RunConcurrent(specs, runnerParams(), 4, func(r Result) {
		emitted = append(emitted, r.Spec.ID)
	})
	if len(emitted) != len(specs) {
		t.Fatalf("emitted %d results for %d specs", len(emitted), len(specs))
	}
	for i, s := range specs {
		if emitted[i] != s.ID {
			t.Fatalf("emit order %v does not match registry order", emitted)
		}
		if results[i].Spec.ID != s.ID {
			t.Fatalf("results[%d] = %s, want %s", i, results[i].Spec.ID, s.ID)
		}
	}
}

// TestRunConcurrentStats: experiments that run simulations must report
// their engine event totals and a positive wall time.
func TestRunConcurrentStats(t *testing.T) {
	spec, ok := Lookup("fig8a")
	if !ok {
		t.Fatal("missing fig8a")
	}
	res := RunConcurrent([]Spec{spec}, runnerParams(), 1, nil)
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Events == 0 {
		t.Error("Events = 0; engine accounting is not wired through")
	}
	if res[0].Wall <= 0 {
		t.Error("Wall not measured")
	}
	if res[0].EventsPerSec() <= 0 {
		t.Error("EventsPerSec not derived")
	}
}

// TestEnvAccountsEveryExperiment is the accounting contract of the Env,
// over the whole registry: Result.Events is the sum of Processed() over
// the engines the experiment obtained, and every experiment that
// simulates obtained some.
func TestEnvAccountsEveryExperiment(t *testing.T) {
	engineFree := map[string]bool{"table1": true, "fig5": true, "table8": true, "fig11b": true}
	p := runnerParams()
	p.Fig11bJobs, p.Table8Jobs = 200, 200 // engine-free; only their zero matters here
	for _, r := range RunConcurrent(Registry(), p, 4, nil) {
		id := r.Spec.ID
		var sum uint64
		for _, rec := range r.Engines {
			sum += rec.Processed
		}
		if r.Events != sum {
			t.Errorf("%s: Events = %d, engines processed %d", id, r.Events, sum)
		}
		if engineFree[id] != (len(r.Engines) == 0) {
			t.Errorf("%s: obtained %d engines", id, len(r.Engines))
		}
		// ablation-topo draws from an engine's RNG and runs no event.
		if !engineFree[id] && id != "ablation-topo" && r.Events == 0 {
			t.Errorf("%s: simulated experiment counted no events", id)
		}
	}
}

// TestRunConcurrentDropsEngines: the plain runner counts the same events
// as the tracing one, over the same engines, and keeps no finished
// simulation alive: a Result holds records, none of them a live engine.
func TestRunConcurrentDropsEngines(t *testing.T) {
	var specs []Spec
	for _, id := range []string{"fig8a", "fig8b", "rack-outage"} {
		s, _ := Lookup(id)
		specs = append(specs, s)
	}
	p := runnerParams()
	traced := RunTraced(specs, p, 2, nil)
	for i, r := range RunConcurrent(specs, p, 2, nil) {
		for _, rec := range append(r.Engines, traced[i].Engines...) {
			if rec.e != nil {
				t.Errorf("%s: a result retained the live engine of seed %d", r.Spec.ID, rec.Seed)
			}
		}
		if len(r.Engines) != len(traced[i].Engines) {
			t.Errorf("%s: RunConcurrent recorded %d engines, RunTraced %d", r.Spec.ID, len(r.Engines), len(traced[i].Engines))
		}
		if r.Events == 0 || r.Events != traced[i].Events {
			t.Errorf("%s: RunConcurrent counted %d events, RunTraced %d", r.Spec.ID, r.Events, traced[i].Events)
		}
	}
}

// sentinel is a pending event's handler that points at nothing, so the
// runtime can finalize it as soon as the engine holding the event is
// unreachable. (An engine itself sits in a cycle — its pending events'
// handlers reach back to it through their cluster — and a finalizer on a
// cycle is not guaranteed to run.)
type sentinel struct{ row, _ int }

func (*sentinel) HandleEvent(int32) {}

// TestSideBySideReleasesRows: a row lets go of its simulation when it
// ends. Each row leaves a broadcast mid-flight and a sentinel event
// pending on its engine; every sentinel must be collectable while the
// caller still holds the Env — with spans armed, so a tracer still
// reading its engine's clock would pin the engine — and the Env must
// still hold every row's record.
func TestSideBySideReleasesRows(t *testing.T) {
	const rows = 6
	var finalized atomic.Int32
	env := &Env{spans: true}
	sideBySide(env, rows, func(i int, env *Env) int {
		c := env.NewCluster(int64(i), cluster.Config{Computes: 64, Satellites: 1})
		comm.FPTree{}.Broadcast(comm.NewBroadcaster(c), c.Satellites()[0], c.Computes(), 512, nil)
		s := &sentinel{row: i}
		runtime.SetFinalizer(s, func(*sentinel) { finalized.Add(1) })
		c.Engine.AfterTo(time.Hour, s, 0)
		c.RunUntil(time.Millisecond)
		if c.Engine.Pending() == 0 {
			t.Errorf("row %d: no event left pending", i)
		}
		return i
	})
	for try := 0; try < 100 && finalized.Load() < rows; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != rows {
		t.Errorf("%d of %d finished rows were collected while their Env was live", got, rows)
	}
	if len(env.engines) != rows {
		t.Fatalf("%d records, want %d", len(env.engines), rows)
	}
	for i, rec := range env.engines {
		if rec.e != nil || rec.Seed != int64(i) || rec.Processed == 0 || rec.Tracer.Len() == 0 || rec.Metrics == nil {
			t.Errorf("record %d = %+v, want seed %d with its events, spans and metrics", i, rec, i)
		}
	}
	runtime.KeepAlive(env)
}

// TestEnvArmsSpansAtCreation: with spans asked for, every engine — built
// by a driver or adopted from sched.Run — has its tracer before its first
// event; without, none is armed. fig8b and fig11a build every engine in a
// child Env of sideBySide, and each of those starts a span at virtual
// time zero, so a child armed late (or not at all) shows as an engine
// whose spans begin after zero.
func TestEnvArmsSpansAtCreation(t *testing.T) {
	spec, _ := Lookup("fig10") // probes plus sched.Run engines
	for _, spans := range []bool{false, true} {
		run := RunConcurrent
		if spans {
			run = RunTraced
		}
		r := run([]Spec{spec}, runnerParams(), 1, nil)[0]
		recorded := 0
		for _, rec := range r.Engines {
			if (rec.Tracer != nil) != spans {
				t.Fatalf("spans=%v: engine seed %d has tracer %v", spans, rec.Seed, rec.Tracer != nil)
			}
			recorded += rec.Tracer.Len()
		}
		if spans && recorded == 0 {
			t.Errorf("tracing armed but no span recorded")
		}
	}
	for _, id := range []string{"fig8b", "fig11a"} {
		spec, _ := Lookup(id)
		r := RunTraced([]Spec{spec}, runnerParams(), 1, nil)[0]
		if len(r.Engines) < 2 {
			t.Fatalf("%s: %d engines, want one per row", id, len(r.Engines))
		}
		for i, rec := range r.Engines {
			if rec.Tracer.Len() == 0 {
				t.Fatalf("%s: engine %d recorded no span", id, i)
			}
			if first := rec.Tracer.Spans()[0].Start; first != 0 {
				t.Errorf("%s: engine %d's first span starts at %v, not at virtual time zero", id, i, first)
			}
		}
	}
}

// TestSideBySideMatchesSerial: a driver runs its independent rows side by
// side on GOMAXPROCS workers. At one worker and at four, every such driver
// must render the same tables, count the same events, hand over the same
// engine records in the same order (seed and events processed, engine by
// engine) and yield the same critical-path report.
func TestSideBySideMatchesSerial(t *testing.T) {
	// The adoption order itself, against the engine list a serial loop
	// over the same rows builds: row i makes i+1 engines.
	row := func(i int, env *Env) int {
		for j := 0; j <= i; j++ {
			env.NewEngine(int64(10*i + j))
		}
		return i
	}
	var serial, fanned Env
	for i := 0; i < 6; i++ {
		row(i, &serial)
	}
	serial.release()
	seeds := func(env *Env) (out []int64) {
		for _, rec := range env.engines {
			out = append(out, rec.Seed)
		}
		return out
	}
	if got := sideBySide(&fanned, 6, row); fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("sideBySide returned %v, want the rows' values in index order", got)
	}
	if fmt.Sprint(seeds(&fanned)) != fmt.Sprint(seeds(&serial)) {
		t.Fatalf("adopted engine seeds %v, serial loop %v", seeds(&fanned), seeds(&serial))
	}

	var specs []Spec
	for _, id := range []string{"fig7", "fig7f", "fig8a", "fig8b", "fig9", "table5", "fig11a",
		"ablation-width", "ablation-realloc", "rack-outage", "fig10", "ablation"} {
		s, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		specs = append(specs, s)
	}
	observe := func(procs int) (tables string, engines []string, report string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		results := RunTraced(specs, runnerParams(), 1, nil)
		var sb strings.Builder
		for _, r := range results {
			for _, tb := range r.Tables {
				tb.Fprint(&sb)
			}
			fmt.Fprintf(&sb, "%s: %d events\n", r.Spec.ID, r.Events)
		}
		for _, r := range results {
			for _, rec := range r.Engines {
				engines = append(engines, fmt.Sprintf("%s seed %d processed %d", r.Spec.ID, rec.Seed, rec.Processed))
			}
		}
		return sb.String(), engines, critpath.AnalyzeRecordings(Recordings(results), 5).String()
	}
	tables1, engines1, report1 := observe(1)
	tables4, engines4, report4 := observe(4)
	if tables1 != tables4 {
		t.Errorf("tables or events differ\n--- GOMAXPROCS 1 ---\n%s\n--- GOMAXPROCS 4 ---\n%s", tables1, tables4)
	}
	if strings.Join(engines1, "\n") != strings.Join(engines4, "\n") {
		t.Errorf("engine lists differ\n--- GOMAXPROCS 1 ---\n%s\n--- GOMAXPROCS 4 ---\n%s",
			strings.Join(engines1, "\n"), strings.Join(engines4, "\n"))
	}
	if report1 != report4 {
		t.Errorf("critpath reports differ")
	}
	if len(engines1) == 0 || len(report1) == 0 {
		t.Fatal("nothing observed")
	}
}
