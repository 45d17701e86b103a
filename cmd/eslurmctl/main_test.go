package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlags: a value the run cannot honour exits 2 naming the flag before
// anything runs, an unknown -rm exits 1, a small in-range run under each
// of the six RMs succeeds and reports every phase, and an eslurm.conf's
// TreeWidth reaches the masters phase 3 probes for the scheduling
// overhead.
func TestFlags(t *testing.T) {
	type flagCase struct {
		name string
		args []string
		// conf, when set, is written to a file passed as -conf.
		conf string
		// exit is a refused run's status, with stderr saying refused;
		// zero means the run must succeed with every string of wantOut on
		// stdout.
		exit    int
		refused string
		wantOut []string
	}
	cases := []flagCase{
		{name: "hours zero", args: []string{"-hours", "0"}, exit: 2, refused: "-hours 0 is not positive"},
		{name: "nodes zero", args: []string{"-nodes", "0"}, exit: 2, refused: "-nodes 0 is not positive"},
		{name: "jobs negative", args: []string{"-jobs", "-5"}, exit: 2, refused: "-jobs -5 is not positive"},
		{name: "satellites negative", args: []string{"-satellites", "-1"}, exit: 2, refused: "-satellites -1 is negative"},
		{name: "failures above one", args: []string{"-failures", "1.5"}, exit: 2, refused: "-failures 1.5 is not a fraction in [0,1]"},
		{name: "failures negative", args: []string{"-failures", "-0.1"}, exit: 2, refused: "-failures -0.1 is not a fraction in [0,1]"},
		{name: "failures NaN", args: []string{"-failures", "NaN"}, exit: 2, refused: "-failures NaN is not a fraction in [0,1]"},
		{name: "unknown flag", args: []string{"-cells", "2"}, exit: 2, refused: "flag provided but not defined: -cells"},
		{name: "unknown RM", args: []string{"-rm", "bogus"}, exit: 1, refused: `unknown RM "bogus"`},
		{name: "small run", args: []string{"-nodes", "256", "-jobs", "200", "-hours", "1"}, wantOut: []string{
			"on 256 nodes (2 satellites), 1h0m0s observed",
			"broadcasts=",
			"scheduling 200 jobs:",
		}},
	}
	for _, m := range []struct{ flag, name string }{
		{"eslurm", "ESlurm"}, {"slurm", "Slurm"}, {"lsf", "LSF"}, {"sge", "SGE"}, {"torque", "Torque"}, {"openpbs", "OpenPBS"},
	} {
		cases = append(cases, flagCase{
			name:    "rm " + m.flag,
			args:    []string{"-rm", m.flag, "-nodes", "256", "-jobs", "200", "-hours", "1"},
			wantOut: []string{"=== " + m.name + " on 256 nodes", "scheduling 200 jobs:"},
		})
	}
	for _, w := range []string{"4", "32"} {
		cases = append(cases, flagCase{
			name:    "conf TreeWidth " + w,
			conf:    "TreeWidth=" + w + "\n",
			args:    []string{"-nodes", "256", "-jobs", "200", "-hours", "1", "-verbose"},
			wantOut: []string{"scheduling 200 jobs:", "probed overhead of a 256-node job:"},
		})
	}
	stdout := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.conf != "" {
				path := filepath.Join(t.TempDir(), "eslurm.conf")
				if err := os.WriteFile(path, []byte(tc.conf), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append([]string{"-conf", path}, args...)
			}
			var out, errs bytes.Buffer
			code := run(args, &out, &errs)
			if tc.exit != 0 {
				if code != tc.exit {
					t.Fatalf("exit %d, want %d (stderr %q)", code, tc.exit, errs.String())
				}
				if !strings.Contains(errs.String(), tc.refused) {
					t.Errorf("stderr does not say %q: %q", tc.refused, errs.String())
				}
				if out.Len() != 0 {
					t.Errorf("a refused run still printed %q", out.String())
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
			stdout[tc.name] = out.String()
		})
	}

	// The probed overhead differs by a few milliseconds per job between
	// the two widths. The scheduling line prints waits to the second and
	// utilization to 0.1%, so it need not move (README, "eslurmctl").
	line := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	w4, w32 := stdout["conf TreeWidth 4"], stdout["conf TreeWidth 32"]
	if p4, p32 := line(w4, "probed overhead"), line(w32, "probed overhead"); p4 == "" || p4 == p32 {
		t.Errorf("TreeWidth=4 and TreeWidth=32 probe the same overhead: %q, %q", p4, p32)
	}
	t.Logf("TreeWidth=4:  %s\nTreeWidth=32: %s", line(w4, "scheduling"), line(w32, "scheduling"))
}
