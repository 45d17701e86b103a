package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// observed runs the CLI in-process over a handful of sub-second
// experiments with every observability flag set, and returns stdout and
// the two files it wrote.
func observed(t *testing.T, parallel string) (stdout, trace, critpath []byte) {
	t.Helper()
	dir := t.TempDir()
	tr, cp := filepath.Join(dir, "trace.json"), filepath.Join(dir, "critpath.txt")
	var out, errs bytes.Buffer
	args := []string{"-exp", "rack-outage,fig8a,fig8b,ablation-width", "-parallel", parallel,
		"-trace", tr, "-metrics", "-critpath", cp}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("benchrunner %v: exit %d\n%s", args, code, errs.String())
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return out.Bytes(), read(tr), read(cp)
}

// TestObservedRunsAreParallelInvariant pins what replaced the forced-serial
// override: -trace, -metrics and -critpath run on the ordinary worker pool,
// and stdout and both files are byte-identical at -parallel 1 and 4.
func TestObservedRunsAreParallelInvariant(t *testing.T) {
	out1, tr1, cp1 := observed(t, "1")
	out4, tr4, cp4 := observed(t, "4")
	if !bytes.Equal(out1, out4) {
		t.Errorf("stdout differs between -parallel 1 and -parallel 4")
	}
	if !bytes.Equal(tr1, tr4) {
		t.Errorf("-trace file differs between -parallel 1 and -parallel 4")
	}
	if !bytes.Equal(cp1, cp4) {
		t.Errorf("-critpath file differs between -parallel 1 and -parallel 4")
	}

	// The run saw every experiment's engines, in registry order whatever
	// order -exp named them in.
	var last int
	for _, id := range []string{"fig8a", "fig8b", "ablation-width", "rack-outage"} {
		i := bytes.Index(out1, []byte("metrics "+id+" engine "))
		if i < last {
			t.Errorf("no metrics dump for %s after byte %d of stdout", id, last)
		}
		last = i
		if !bytes.Contains(tr1, []byte(id+" engine ")) {
			t.Errorf("-trace file names no %s engine", id)
		}
		if !bytes.Contains(cp1, []byte(id)) {
			t.Errorf("-critpath report has no %s group", id)
		}
	}

	// Recording is passive: the tables are the plain run's, byte for byte.
	var plain, errs bytes.Buffer
	if code := run([]string{"-exp", "fig8a,fig8b,ablation-width,rack-outage", "-parallel", "4"}, &plain, &errs); code != 0 {
		t.Fatalf("plain run: exit %d\n%s", code, errs.String())
	}
	if plain.Len() == 0 || !bytes.HasPrefix(out1, plain.Bytes()) {
		t.Errorf("observed run's tables differ from the plain run's")
	}
}

// TestPerfRecordIsExact: the -json perf record holds only what the preset
// fixes, so it is byte-identical at any -parallel and carries no
// host or timing key — which is what lets CI compare a fresh record with
// the committed BENCH_quick.json by diff. An engine experiment records
// events and messages; table8 and fig11b, estimator replays, record fits
// and SVR sweeps and no event, and fig11b, whose TRIP row fits Tobit
// models, its Tobit steps; fig10 and the ablation, whose schedules plan
// with the estimation framework, record both; no other experiment fits a
// model.
func TestPerfRecordIsExact(t *testing.T) {
	dir := t.TempDir()
	record := func(parallel string) []byte {
		path := filepath.Join(dir, "bench-"+parallel+".json")
		var out, errs bytes.Buffer
		args := []string{"-exp", "fig8a,fig8b,table8,fig10,fig11b,ablation,ablation-width,rack-outage", "-parallel", parallel, "-json", path}
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("benchrunner %v: exit %d\n%s", args, code, errs.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one, three := record("1"), record("3")
	if !bytes.Equal(one, three) {
		t.Fatalf("perf record differs between -parallel 1 and -parallel 3:\n%s\n%s", one, three)
	}

	var rec struct {
		Preset      string
		TotalEvents uint64 `json:"total_events"`
		Experiments []map[string]any
	}
	var top map[string]any
	if err := json.Unmarshal(one, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(one, &rec); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]any) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	if got, want := keys(top), "experiments,preset,total_events"; got != want {
		t.Errorf("record keys %s, want %s", got, want)
	}
	if rec.Preset != "quick" || len(rec.Experiments) != 8 {
		t.Fatalf("record has preset %q and %d experiments, want quick and 8", rec.Preset, len(rec.Experiments))
	}
	var sum uint64
	for _, e := range rec.Experiments {
		if got, want := keys(e), "artifact,events,fits,id,messages,svr_sweeps,tobit_steps"; got != want {
			t.Errorf("experiment %v keys %s, want %s", e["id"], got, want)
		}
		n, _ := e["events"].(float64)
		fits, _ := e["fits"].(float64)
		sweeps, _ := e["svr_sweeps"].(float64)
		if steps, _ := e["tobit_steps"].(float64); (steps > 0) != (e["id"] == "fig11b") {
			t.Errorf("%v recorded %v Tobit steps; only fig11b fits Tobit models", e["id"], steps)
		}
		switch e["id"] {
		case "table8", "fig11b", "fig10", "ablation":
			if fits <= 0 || sweeps < fits {
				t.Errorf("%v recorded %v fits and %v SVR sweeps; want some, and more sweeps than fits", e["id"], fits, sweeps)
			}
		default:
			if fits != 0 || sweeps != 0 {
				t.Errorf("experiment %v recorded %v fits and %v SVR sweeps", e["id"], fits, sweeps)
			}
		}
		if e["id"] == "table8" || e["id"] == "fig11b" {
			if n != 0 {
				t.Errorf("table8 recorded %v events", n)
			}
			continue
		}
		if n <= 0 {
			t.Errorf("experiment %v recorded %v events", e["id"], e["events"])
		}
		if m, _ := e["messages"].(float64); m <= 0 || m > n {
			t.Errorf("experiment %v recorded %v messages for %v events", e["id"], e["messages"], n)
		}
		sum += uint64(n)
	}
	if sum != rec.TotalEvents {
		t.Errorf("total_events %d, experiments sum to %d", rec.TotalEvents, sum)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-exp", "fig8a,nope"}, &out, &errs); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errs.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr does not name the unknown ID: %q", errs.String())
	}
}

// TestShardsHonouredOrRefused: every cluster runs on one engine, so there
// is no partitioned run to ask for — -cells is not a flag, and asking for
// it exits 2 before anything runs.
func TestShardsHonouredOrRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{args: []string{"-exp", "fig8b,rack-outage", "-cells"}, code: 2},
		{args: []string{"-exp", "table1,ablation-topo", "-cells"}, code: 2},
		{args: []string{"-exp", "table1"}, code: 0},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != tc.code {
			t.Errorf("%v: exit %d, want %d\n%s", tc.args, code, tc.code, errs.String())
		}
		if tc.code == 2 && (out.Len() != 0 || !strings.Contains(errs.String(), "flag provided but not defined: -cells")) {
			t.Errorf("%v: ran or did not refuse -cells: stdout %d bytes, stderr %q", tc.args, out.Len(), errs.String())
		}
	}
}

// TestBannerNamesPoolSize: the banner states how many workers the pool
// runs — at most one per experiment, GOMAXPROCS for -parallel below 1 —
// not the -parallel value as given.
func TestBannerNamesPoolSize(t *testing.T) {
	for _, tc := range []struct {
		parallel string
		want     int
	}{
		{"-3", min(runtime.GOMAXPROCS(0), 2)},
		{"0", min(runtime.GOMAXPROCS(0), 2)},
		{"1", 1},
		{"8", 2},
	} {
		var out, errs bytes.Buffer
		if code := run([]string{"-exp", "table1,fig5", "-parallel", tc.parallel}, &out, &errs); code != 0 {
			t.Fatalf("-parallel %s: exit %d\n%s", tc.parallel, code, errs.String())
		}
		if want := fmt.Sprintf("-- 2 experiment(s), quick preset, %d worker(s)\n", tc.want); !strings.HasPrefix(errs.String(), want) {
			t.Errorf("-parallel %s: banner %q, want %q", tc.parallel, strings.SplitN(errs.String(), "\n", 2)[0], strings.TrimSpace(want))
		}
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a non-empty pprof
// file and the tables are the plain run's; a path that cannot be created
// fails before any experiment runs.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var plain, out, errs bytes.Buffer
	if code := run([]string{"-exp", "fig8b"}, &plain, &errs); code != 0 {
		t.Fatalf("plain run: exit %d\n%s", code, errs.String())
	}
	if code := run([]string{"-exp", "fig8b", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errs); code != 0 {
		t.Fatalf("profiled run: exit %d\n%s", code, errs.String())
	}
	if !bytes.Equal(out.Bytes(), plain.Bytes()) {
		t.Errorf("profiled run's tables differ from the plain run's")
	}
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}

	out.Reset()
	errs.Reset()
	bad := filepath.Join(dir, "no-such-dir", "cpu.pprof")
	if code := run([]string{"-exp", "fig8b", "-cpuprofile", bad}, &out, &errs); code != 1 {
		t.Errorf("unwritable -cpuprofile: exit %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("unwritable -cpuprofile still ran the experiment:\n%s", out.String())
	}
}
