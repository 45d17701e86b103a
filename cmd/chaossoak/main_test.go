package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny keeps each soak to a fraction of a second.
var tiny = []string{"-seeds", "1", "-nodes", "64", "-span", "2m", "-broadcasts", "3"}

// TestFlagsHonouredOrRefused is the contract behind every flag
// combination: a flag either does what it says (file written, dump on
// stdout, setting reaches the report) or the run exits 2 naming it —
// never accepted and ignored.
func TestFlagsHonouredOrRefused(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"initial":{"satellites":3,"min_satellites":1,"max_satellites":6}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		// refused names the flag an exit-2 message must mention; empty
		// means the run must succeed and honour everything it was given.
		refused string
		// writes says the path given as FILE must exist, non-empty,
		// afterwards; stdout must contain every string in wantOut.
		writes  bool
		wantOut []string
	}{
		{name: "single trace", args: []string{"-trace", "FILE"}, writes: true, wantOut: []string{"trace: 1 seeds"}},
		{name: "single critpath", args: []string{"-critpath", "FILE"}, writes: true, wantOut: []string{"critpath: 1 seed(s)"}},
		{name: "single metrics", args: []string{"-metrics"}, wantOut: []string{"metrics seed 1:", "comm.messages"}},
		{name: "single silent", args: []string{"-silent", "0.5"}, wantOut: []string{"silent=0.50"}},
		{name: "single target", args: []string{"-target", "3"}, refused: "-target"},
		{name: "single spec", args: []string{"-spec", spec}, refused: "-spec"},

		{name: "shards trace", args: []string{"-shards", "2", "-trace", "FILE"}, writes: true, wantOut: []string{"trace: 1 seeds"}},
		{name: "shards critpath", args: []string{"-shards", "2", "-critpath", "FILE"}, writes: true, wantOut: []string{"critpath: 1 seed(s)"}},
		{name: "shards metrics", args: []string{"-shards", "2", "-metrics"}, wantOut: []string{"metrics seed 1:", "comm.messages", "master.subtasks", "simnet.windows"}},
		{name: "shards silent", args: []string{"-shards", "2", "-silent", "0.5"}, wantOut: []string{"silent=0.50", "reallocs=", "takeovers="}},
		{name: "shards target", args: []string{"-shards", "2", "-target", "3"}, refused: "-target"},
		{name: "shards spec", args: []string{"-shards", "2", "-spec", spec}, refused: "-spec"},

		{name: "reconcile trace", args: []string{"-reconcile", "-trace", "FILE"}, refused: "-trace"},
		{name: "reconcile critpath", args: []string{"-reconcile", "-critpath", "FILE"}, refused: "-critpath"},
		{name: "reconcile metrics", args: []string{"-reconcile", "-metrics"}, refused: "-metrics"},
		{name: "reconcile silent", args: []string{"-reconcile", "-silent", "0.5"}, refused: "-silent"},
		{name: "reconcile target", args: []string{"-reconcile", "-target", "3"}, wantOut: []string{"target=3"}},
		{name: "reconcile spec", args: []string{"-reconcile", "-spec", spec}, wantOut: []string{"reconcile soak"}},
		{name: "reconcile shards", args: []string{"-reconcile", "-shards", "2"}, wantOut: []string{"reconcile soak"}},
		{name: "two refusals both named", args: []string{"-reconcile", "-trace", "FILE", "-metrics"}, refused: "-metrics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "out")
			args := append([]string(nil), tiny...)
			for _, a := range tc.args {
				if a == "FILE" {
					a = file
				}
				args = append(args, a)
			}
			var out, errs bytes.Buffer
			code := run(args, &out, &errs)
			if tc.refused != "" {
				if code != 2 {
					t.Fatalf("exit %d, want 2 (stderr %q)", code, errs.String())
				}
				if !strings.Contains(errs.String(), tc.refused+" is not available with") {
					t.Errorf("stderr does not refuse %s: %q", tc.refused, errs.String())
				}
				if out.Len() != 0 {
					t.Errorf("a refused run still produced a report")
				}
				if _, err := os.Stat(file); err == nil {
					t.Errorf("a refused run still wrote %s", file)
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errs.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, out.String())
				}
			}
			if tc.writes {
				if st, err := os.Stat(file); err != nil || st.Size() == 0 {
					t.Errorf("nothing written to %s (err %v)", file, err)
				}
			}
		})
	}
}

// TestShardedObservabilityIsWorkerInvariant: what -shards newly honours
// is byte-identical at any worker count, like the report itself.
func TestShardedObservabilityIsWorkerInvariant(t *testing.T) {
	soak := func(workers string) (stdout, trace string) {
		file := filepath.Join(t.TempDir(), "trace.json")
		var out, errs bytes.Buffer
		args := append(append([]string(nil), tiny...), "-shards", workers, "-metrics", "-trace", file)
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("-shards %s: exit %d\n%s", workers, code, errs.String())
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(out.String(), file, "FILE"), string(data)
	}
	out1, tr1 := soak("1")
	out3, tr3 := soak("3")
	if out1 != out3 {
		t.Errorf("stdout differs between -shards 1 and -shards 3:\n%s\n---\n%s", out1, out3)
	}
	if tr1 != tr3 {
		t.Errorf("-trace file differs between -shards 1 and -shards 3")
	}
	if !strings.Contains(tr1, "chaossoak seed 1 cell 1") {
		t.Errorf("-trace file has no per-cell process")
	}
}
