package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlags: a value the run cannot honour exits 2 naming the flag before
// anything runs, an unknown -rm exits 1, and a small in-range run under
// each of the six RMs succeeds and reports every phase.
func TestFlags(t *testing.T) {
	type flagCase struct {
		name string
		args []string
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errs bytes.Buffer
			code := run(tc.args, &out, &errs)
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
		})
	}
}
