package main

import (
	"bytes"
	"os"
	"path/filepath"
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

func TestUnknownExperiment(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-exp", "fig8a,nope"}, &out, &errs); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errs.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr does not name the unknown ID: %q", errs.String())
	}
}

// TestShardsHonouredOrRefused: -shards either partitions some cluster of
// the selection or the run exits 2 naming the experiments — never accepted
// and ignored. The honoured side (fig7f, fig10, ablation report Sharded)
// is pinned by experiment.TestEnvAccountsEveryExperiment.
func TestShardsHonouredOrRefused(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		code    int
		refused []string // every ID the refusal must name
	}{
		{args: []string{"-exp", "fig8b", "-shards", "2"}, code: 2, refused: []string{"fig8b"}},
		{args: []string{"-exp", "fig8b,rack-outage", "-shards", "1"}, code: 2, refused: []string{"fig8b", "rack-outage"}},
		{args: []string{"-exp", "fig8b", "-shards", "0"}, code: 0},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != tc.code {
			t.Errorf("%v: exit %d, want %d\n%s", tc.args, code, tc.code, errs.String())
		}
		for _, id := range tc.refused {
			if !strings.Contains(errs.String(), "-shards") || !strings.Contains(errs.String(), id) {
				t.Errorf("%v: stderr does not refuse -shards naming %s: %q", tc.args, id, errs.String())
			}
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
