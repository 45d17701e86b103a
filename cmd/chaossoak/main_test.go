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
		// refused is what an exit-2 message must say, naming the flag;
		// empty means the run must succeed and honour everything it was
		// given.
		refused string
		// writes says the path given as FILE must exist, non-empty,
		// afterwards, holding every string in inFile; stdout must contain
		// every string in wantOut.
		writes  bool
		inFile  []string
		wantOut []string
	}{
		{name: "single trace", args: []string{"-trace", "FILE"}, writes: true, wantOut: []string{"-- trace: 1 engine(s) -> "}},
		{name: "single critpath", args: []string{"-critpath", "FILE"}, writes: true, wantOut: []string{"-- critpath: 1 source(s) -> "}},
		{name: "single metrics", args: []string{"-metrics"}, wantOut: []string{"metrics seed 1:", "comm.messages"}},
		{name: "single silent", args: []string{"-silent", "0.5"}, wantOut: []string{"silent=0.50"}},
		{name: "single target", args: []string{"-target", "3"}, refused: "-target is not available with"},
		{name: "single spec", args: []string{"-spec", spec}, refused: "-spec is not available with"},

		// Every seed runs on one engine: -cells is not a flag, whatever it
		// is combined with.
		{name: "shards trace", args: []string{"-cells", "-trace", "FILE"}, refused: "flag provided but not defined: -cells"},
		{name: "shards critpath", args: []string{"-cells", "-critpath", "FILE"}, refused: "flag provided but not defined: -cells"},
		{name: "shards metrics", args: []string{"-cells", "-metrics"}, refused: "flag provided but not defined: -cells"},
		{name: "shards silent", args: []string{"-cells", "-silent", "0.5"}, refused: "flag provided but not defined: -cells"},
		{name: "shards target", args: []string{"-cells", "-target", "3"}, refused: "flag provided but not defined: -cells"},
		{name: "shards spec", args: []string{"-cells", "-spec", spec}, refused: "flag provided but not defined: -cells"},

		{name: "reconcile trace", args: []string{"-reconcile", "-trace", "FILE"}, refused: "-trace is not available with"},
		{name: "reconcile critpath", args: []string{"-reconcile", "-critpath", "FILE"}, refused: "-critpath is not available with"},
		{name: "reconcile metrics", args: []string{"-reconcile", "-metrics"}, refused: "-metrics is not available with"},
		{name: "reconcile silent", args: []string{"-reconcile", "-silent", "0.5"}, refused: "-silent is not available with"},
		{name: "reconcile target", args: []string{"-reconcile", "-target", "3"}, wantOut: []string{"target=3"}},
		{name: "reconcile target negative", args: []string{"-reconcile", "-target", "-2"}, refused: "-target -2 is not in [0,6]"},
		{name: "reconcile target above default pool", args: []string{"-reconcile", "-target", "9"}, refused: "-target 9 is not in [0,6]"},
		{name: "reconcile target above sats", args: []string{"-reconcile", "-sats", "3", "-target", "4"}, refused: "-target 4 is not in [0,3]"},
		{name: "reconcile target whole pool", args: []string{"-reconcile", "-sats", "3", "-target", "3"}, wantOut: []string{"satellites=3 target=3"}},
		{name: "reconcile spec", args: []string{"-reconcile", "-spec", spec}, wantOut: []string{"reconcile soak"}},
		{name: "reconcile shards", args: []string{"-reconcile", "-cells"}, refused: "flag provided but not defined: -cells"},
		{name: "two refusals both named", args: []string{"-reconcile", "-trace", "FILE", "-metrics"}, refused: "-metrics is not available with"},

		// -loss, -dup and -silent are probabilities: the network would
		// clamp a value outside [0,1] while the header printed it raw.
		{name: "loss above one", args: []string{"-loss", "1.5"}, refused: "-loss 1.5 is not a probability in [0,1]"},
		{name: "dup below zero", args: []string{"-dup", "-0.2"}, refused: "-dup -0.2 is not a probability in [0,1]"},
		{name: "silent above one", args: []string{"-silent", "3"}, refused: "-silent 3 is not a probability in [0,1]"},
		{name: "loss NaN", args: []string{"-loss", "NaN"}, refused: "-loss NaN is not a probability in [0,1]"},
		{name: "reconcile dup above one", args: []string{"-reconcile", "-dup", "2"}, refused: "-dup 2 is not a probability in [0,1]"},
		{name: "probability bounds", args: []string{"-loss", "0", "-dup", "1", "-silent", "1"}, wantOut: []string{"loss=0.000 dup=1.000", "silent=1.00"}},

		// Sizes below one would be replaced by the soak's defaults, in
		// either soak, while the run looked like it honoured them.
		{name: "seeds zero", args: []string{"-seeds", "0"}, refused: "-seeds 0 is not positive"},
		{name: "sats negative", args: []string{"-sats", "-3"}, refused: "-sats -3 is not positive"},
		{name: "nodes zero", args: []string{"-nodes", "0"}, refused: "-nodes 0 is not positive"},
		{name: "broadcasts negative", args: []string{"-broadcasts", "-1"}, refused: "-broadcasts -1 is not positive"},
		{name: "span zero", args: []string{"-span", "0s"}, refused: "-span 0s is not positive"},
		{name: "bound negative", args: []string{"-bound", "-1m"}, refused: "-bound -1m0s is not positive"},
		{name: "reconcile seeds zero", args: []string{"-reconcile", "-seeds", "0"}, refused: "-seeds 0 is not positive"},
		{name: "reconcile sats negative", args: []string{"-reconcile", "-sats", "-3"}, refused: "-sats -3 is not positive"},
		{name: "reconcile nodes zero", args: []string{"-reconcile", "-nodes", "0"}, refused: "-nodes 0 is not positive"},
		{name: "reconcile broadcasts zero", args: []string{"-reconcile", "-broadcasts", "0"}, refused: "-broadcasts 0 is not positive"},
		{name: "reconcile span negative", args: []string{"-reconcile", "-span", "-5s"}, refused: "-span -5s is not positive"},
		{name: "reconcile bound zero", args: []string{"-reconcile", "-bound", "0s"}, refused: "-bound 0s is not positive"},
		{name: "smallest sizes", args: []string{"-seeds", "1", "-sats", "1", "-nodes", "8", "-broadcasts", "1"}, wantOut: []string{"seeds=1 base=1 computes=8 satellites=1", "broadcasts=1"}},
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
				if !strings.Contains(errs.String(), tc.refused) {
					t.Errorf("stderr does not say %q: %q", tc.refused, errs.String())
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
				data, err := os.ReadFile(file)
				if err != nil || len(data) == 0 {
					t.Errorf("nothing written to %s (err %v)", file, err)
				}
				for _, want := range tc.inFile {
					if !strings.Contains(string(data), want) {
						t.Errorf("%s lacks %q", file, want)
					}
				}
			}
		})
	}
}

// TestProfileFlags: in either soak, -cpuprofile and -memprofile each leave
// a non-empty pprof file and the report is byte for byte the unprofiled
// run's; a profile path that cannot be created fails (exit 2) before the
// soak runs.
func TestProfileFlags(t *testing.T) {
	for _, mode := range [][]string{nil, {"-reconcile"}} {
		base := append(append([]string(nil), tiny...), mode...)
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
		var plain, out, errs bytes.Buffer
		if code := run(base, &plain, &errs); code != 0 {
			t.Fatalf("%v plain run: exit %d\n%s", mode, code, errs.String())
		}
		if code := run(append(base, "-cpuprofile", cpu, "-memprofile", mem), &out, &errs); code != 0 {
			t.Fatalf("%v profiled run: exit %d\n%s", mode, code, errs.String())
		}
		if !bytes.Equal(out.Bytes(), plain.Bytes()) {
			t.Errorf("%v: profiled report differs from the plain one:\n%s\nvs\n%s", mode, out.String(), plain.String())
		}
		for _, path := range []string{cpu, mem} {
			if info, err := os.Stat(path); err != nil || info.Size() == 0 {
				t.Errorf("%v: %s missing or empty (%v)", mode, filepath.Base(path), err)
			}
		}

		out.Reset()
		errs.Reset()
		bad := filepath.Join(dir, "no-such-dir", "mem.pprof")
		if code := run(append(base, "-memprofile", bad), &out, &errs); code != 2 {
			t.Errorf("%v unwritable -memprofile: exit %d, want 2", mode, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v unwritable -memprofile still ran the soak:\n%s", mode, out.String())
		}
	}
}
