package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"eslurm/internal/experiment"
	"eslurm/internal/obs"
)

// TestSmoke runs both passes of every workload, and with them every probe,
// at toy sizes, and checks that every named metric comes out once with a
// finite value.
func TestSmoke(t *testing.T) {
	sz := toySizes()
	for _, w := range workloads {
		plain, err := runPass(passConfig{Workload: w.name, Seed: 1}, sz)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Attempted == 0 || len(plain.Samples) != minIters {
			t.Errorf("%s: %d ops, %d timed iterations", w.name, plain.Attempted, len(plain.Samples))
		}
		for _, d := range endToEnd {
			v, ok := endToEndValues(plain)[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.name, d.name, v, ok)
			}
		}

		out := filepath.Join(t.TempDir(), "trace.json")
		traced, err := runPass(passConfig{Workload: w.name, Seed: 1, Traced: true, TraceOut: out}, sz)
		if err != nil {
			t.Fatal(err)
		}
		if len(traced.Layer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d defined", w.name, len(traced.Layer), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := traced.Layer[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.name, d.name, v, ok)
			}
		}
		// The simulation workloads hold their shape even at toy sizes; the
		// estimator tables need the full trace length to.
		if w.name != "estimate_replay" && plain.Failed+traced.Failed != 0 {
			t.Errorf("%s: failed ops: %v %v", w.name, plain.Failures, traced.Failures)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Args map[string]any
			}
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace: %d events, %v", w.name, len(doc.TraceEvents), err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code's tables
// and inside the limits the benchmark contract sets on names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameOK.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(want))
		}
		for i, m := range got {
			name(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit || !unitOK.MatchString(m.Unit) {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// TestRegistryCounters: the counters the probes read by name still exist.
func TestRegistryCounters(t *testing.T) {
	known := map[string]bool{}
	for _, m := range obs.MetricTaxonomy() {
		known[m.Name] = true
	}
	for _, c := range registryCounters {
		if !known[c] {
			t.Errorf("counter %s is gone from the obs taxonomy", c)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms},                 // 1: children cover 10-40 and 50-70
		{Name: "a", Parent: 1, Start: 10 * ms, End: 30 * ms},    // 2
		{Name: "b", Parent: 1, Start: 20 * ms, End: 40 * ms},    // 3: overlaps a, counted once
		{Name: "c", Parent: 1, Start: 50 * ms, End: 70 * ms},    // 4
		{Name: "c1", Parent: 4, Start: 55 * ms, End: 60 * ms},   // 5: grandchild, not root's business
		{Name: "late", Parent: 4, Start: 65 * ms, End: 90 * ms}, // 6: clipped to c's end
		{Name: "open", Parent: 1, Start: 80 * ms, End: -1},      // 7: never closed, ignored
	}
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 10 * ms, 5 * ms, 25 * ms, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %v, want %v", i+1, spans[i].Name, got[i], want[i])
		}
	}

	var nilRec *recorder
	if id := nilRec.start("x", 0); id != 0 || nilRec.end(id) != 0 {
		t.Error("a nil recorder must record nothing")
	}
	rec := newRecorder()
	rec.setIter("it/1")
	outer := rec.start("outer", 0)
	inner := rec.start("inner", outer)
	rec.end(inner)
	rec.end(outer)
	if s := rec.spans[inner-1]; s.Parent != outer || s.Iter != "it/1" || s.End < s.Start {
		t.Errorf("recorded span %+v", s)
	}
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil || !strings.Contains(buf.String(), `"self_us"`) {
		t.Errorf("Chrome trace: %v %s", err, buf.String())
	}
}

func table8(urs ...string) []*experiment.Table {
	tb := &experiment.Table{ID: "table8", Columns: []string{"alpha", "AEA", "UR"}}
	for i, ur := range urs {
		tb.AddRow([]string{"1.00", "1.01", "1.02"}[i], "0.900", ur)
	}
	return []*experiment.Table{tb}
}

// TestFlippedCellFails: one changed cell of a rendered table makes its op
// count as failed, by the shape check when the relation breaks and by the
// byte comparison with the warm-up iteration otherwise.
func TestFlippedCellFails(t *testing.T) {
	ref := iteration{Ops: []opResult{checkedOp("table8", table8("0.380", "0.273", "0.223"), 0)}}
	var res passResult
	res.tally(ref, nil)
	if res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("good table: %+v", res)
	}

	shape := iteration{Ops: []opResult{checkedOp("table8", table8("0.380", "0.273", "0.283"), 0)}}
	res = passResult{}
	res.tally(shape, nil)
	if res.Failed != 1 || !strings.Contains(res.Failures[0], "UR rose") {
		t.Errorf("UR rising with alpha must fail the shape check: %+v", res)
	}

	drift := iteration{Ops: []opResult{checkedOp("table8", table8("0.380", "0.273", "0.222"), 0)}}
	res = passResult{}
	res.tally(drift, &ref)
	if res.Failed != 1 || !strings.Contains(res.Failures[0], "differs from the warm-up") {
		t.Errorf("a cell that differs from the warm-up iteration must fail: %+v", res)
	}
}

func TestShapeCheckers(t *testing.T) {
	tab := func(id string, cols []string, rows ...[]string) *experiment.Table {
		return &experiment.Table{ID: id, Columns: cols, Rows: rows}
	}
	sizes := []string{"RM", "64 nodes", "1024 nodes", "2048 nodes"}
	fig7f := func(eslurm, sge string) []*experiment.Table {
		return []*experiment.Table{tab("fig7f", sizes,
			[]string{"SGE", "10.73s", sge, "-"}, []string{"Torque", "11.77s", "38.33s", "-"},
			[]string{"OpenPBS", "11.15s", "26.45s", "-"}, []string{"ESlurm", "10.00s", eslurm, "-"})}
	}
	ratios := []string{"structure", "0.0% failed", "10.0% failed", "30.0% failed"}
	fig8b := func(fp30 string) []*experiment.Table {
		return []*experiment.Table{tab("fig8b", ratios,
			[]string{"tree", "2.1ms", "3.00s", "6.00s"}, []string{"fptree", "2.1ms", "2.1ms", fp30})}
	}
	fig11b := func(eslurm string) []*experiment.Table {
		cols := []string{"Estimator", "AEA", "UnderestimateRate", "Coverage"}
		return []*experiment.Table{tab("fig11b", cols,
			[]string{"User", "0.422", "0.1", "1"}, []string{"SVM", "0.670", "0.4", "0.9"},
			[]string{"RandomForest", "0.723", "0.4", "0.9"}, []string{"IRPA", "0.658", "0.4", "0.9"},
			[]string{"TRIP", "0.554", "0.4", "0.9"}, []string{"PREP", "0.864", "0.5", "1"},
			[]string{"ESlurm", eslurm, "0.3", "0.6"})}
	}
	fig8a := func(eslurm string) []*experiment.Table {
		cols := []string{"System", "job loading msg", "job termination msg"}
		return []*experiment.Table{tab("fig8a", cols,
			[]string{"Slurm (fanout tree)", "3.00s", "3.00s"}, []string{"ESlurm w/o FP-Tree", "3.11s", "3.11s"},
			[]string{"ESlurm", eslurm, "108.2ms"})}
	}
	fig9 := func(eslurmCPU string) []*experiment.Table {
		cols := []string{"RM", "CPU time", "vmem", "rss", "avg sockets", "peak sockets"}
		return []*experiment.Table{
			tab("fig9", cols, []string{"Slurm", "11.04s", "28GB", "918MB", "0.1", "1044"}, []string{"ESlurm", eslurmCPU, "1GB", "49MB", "2.0", "4"}),
			tab("fig9sat", []string{"satellite", "CPU time"}, []string{"satellite 1", "1.70s"}),
		}
	}
	table5 := func(cpu50 string) []*experiment.Table {
		cols := []string{"metric", "SE1(10)", "SE2(50)"}
		return []*experiment.Table{tab("table5", cols, []string{"CPU time", "263.2ms", cpu50}), tab("table6", cols)}
	}
	fig11a := func(cell string) []*experiment.Table {
		return []*experiment.Table{tab("fig11a", []string{"satellites", "broadcast time"}, []string{"5", "215.1ms"}, []string{"10", cell})}
	}
	for _, c := range []struct {
		id        string
		good, bad []*experiment.Table
	}{
		{"fig7f", fig7f("10.00s", "21.60s"), fig7f("15.20s", "21.60s")},
		{"fig7f", fig7f("10.00s", "21.60s"), fig7f("10.00s", "9.60s")},
		{"fig8a", fig8a("108.2ms"), fig8a("3.20s")},
		{"fig8b", fig8b("2.1ms"), fig8b("7.00s")},
		{"fig9", fig9("126.1ms"), fig9("12.00s")},
		{"table5", table5("573.2ms"), table5("100.0ms")},
		{"fig11a", fig11a("120.3ms"), fig11a("n/a")},
		{"table8", table8("0.3", "0.2", "0.2"), table8("0.3", "0.2", "0.25")},
		{"fig11b", fig11b("0.858"), fig11b("0.700")},
	} {
		if err := checkers[c.id](c.good); err != nil {
			t.Errorf("%s: good table rejected: %v", c.id, err)
		}
		if err := checkers[c.id](c.bad); err == nil {
			t.Errorf("%s: bad table accepted", c.id)
		}
		if err := checkers[c.id](nil); err == nil {
			t.Errorf("%s: missing table accepted", c.id)
		}
	}
	for s, want := range map[string]time.Duration{"0": 0, "250µs": 250 * time.Microsecond, "2.1ms": 2100 * time.Microsecond, "3.00s": 3 * time.Second, "10.2m": 612 * time.Second, "1.0h": time.Hour} {
		if got, err := parseDur(s); err != nil || got != want {
			t.Errorf("parseDur(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseDur("fast"); err == nil {
		t.Error("parseDur accepted a cell without a unit")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.25: 1.75} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
