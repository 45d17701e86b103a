package reconcile

import (
	"strings"
	"testing"
	"time"
)

// Table-driven error-path coverage for the schedule parser: every
// rejection branch in ParseSchedule/Validate, with a substring of the
// diagnostic pinned so a refactor cannot silently swap one error for a
// vaguer one.

// specForms places one spec and one mutation time in a schedule both
// ways round: the spec as the initial spec, and the spec as the
// mutation's.
func specForms(spec, at string) []string {
	return []string{
		`{"initial": ` + spec + `, "schedule": [{"at": ` + at + `, "spec": {}}]}`,
		`{"initial": {}, "schedule": [{"at": ` + at + `, "spec": ` + spec + `}]}`,
	}
}

// TestParseSpecErrors runs each spec both as the initial spec and as a
// mutation's spec.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		at      string // the mutation's time; "" means "1m"
		wantErr string // substring of the error; "" means must parse
	}{
		{"unknown field", `{"satelites": 3}`, ``, `unknown field`},
		{"unknown nested knob", `{"satellites": 2, "tree_widht": 50}`, ``, `unknown field`},
		{"not json", `satellites = 3`, ``, `parsing spec`},
		{"wrong type", `{"satellites": "three"}`, ``, `parsing spec`},
		{"bad duration string", `{}`, `"150 parsecs"`, `bad duration`},
		{"negative target", `{"satellites": -1}`, ``, `negative satellite counts`},
		{"negative min", `{"min_satellites": -2}`, ``, `negative satellite counts`},
		{"min over max", `{"min_satellites": 5, "max_satellites": 2}`, ``, `min_satellites 5 > max_satellites 2`},
		// The master's parameters reach it only through core.Config, so a
		// spec naming one is rejected whatever its value.
		{"negative heartbeat", `{"heartbeat_interval": "-10s"}`, ``, `unknown field "heartbeat_interval"`},
		{"heartbeat interval", `{"satellites": 2, "heartbeat_interval": "150s"}`, ``, `unknown field "heartbeat_interval"`},
		{"tree width", `{"satellites": 2, "tree_width": 50}`, ``, `unknown field "tree_width"`},
		{"realloc limit", `{"satellites": 2, "realloc_limit": 2}`, ``, `unknown field "realloc_limit"`},
		{"cordoned master", `{"cordoned": [0]}`, ``, `not a satellite`},
		{"cordoned negative", `{"cordoned": [-3]}`, ``, `not a satellite`},
		{"zero min is unbounded", `{"min_satellites": 0, "max_satellites": 2, "satellites": 1}`, ``, ``},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			at := tc.at
			if at == "" {
				at = `"1m"`
			}
			for _, in := range specForms(tc.in, at) {
				_, err := ParseSchedule(strings.NewReader(in))
				checkParseErr(t, err, tc.wantErr)
			}
		})
	}
}

func TestParseScheduleErrors(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string
	}{
		{"unknown top-level field", `{"initial": {}, "schdule": []}`, `unknown field`},
		{"unknown field in mutation spec",
			`{"initial": {}, "schedule": [{"at": "1m", "spec": {"satelites": 2}}]}`,
			`unknown field`},
		{"invalid initial spec", `{"initial": {"satellites": -1}}`, `initial spec`},
		{"negative mutation time",
			`{"initial": {}, "schedule": [{"at": "-5m", "spec": {}}]}`,
			`mutation 0: negative time`},
		{"invalid second mutation names its index",
			`{"initial": {}, "schedule": [
				{"at": "1m", "spec": {}},
				{"at": "2m", "spec": {"min_satellites": 9, "max_satellites": 1}}
			]}`,
			`mutation 1:`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSchedule(strings.NewReader(tc.in))
			checkParseErr(t, err, tc.wantErr)
		})
	}
}

func checkParseErr(t *testing.T, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("parse accepted input, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

// TestParseSpecClampsThroughParse: the parser returns normalized specs,
// initial and mutation alike, so a target outside [min, max] is already
// clamped by the time a caller sees it — the reconciler never observes an
// out-of-bounds target.
func TestParseSpecClampsThroughParse(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want int
	}{
		{"clamped up to min", `{"satellites": 1, "min_satellites": 3}`, 3},
		{"clamped down to max", `{"satellites": 10, "max_satellites": 4}`, 4},
		{"inside bounds untouched", `{"satellites": 3, "min_satellites": 2, "max_satellites": 8}`, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forms := specForms(tc.in, `"1m"`)
			initial, err := ParseSchedule(strings.NewReader(forms[0]))
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := ParseSchedule(strings.NewReader(forms[1]))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Spec{initial.Initial, mutated.Mutations[0].Spec} {
				if s.Satellites != tc.want {
					t.Fatalf("Satellites = %d, want %d", s.Satellites, tc.want)
				}
			}
		})
	}
}

// TestParseScheduleStableSort: mutations sort by time, and equal-time
// mutations keep file order (stable sort) — the property that makes the
// resulting engine schedule deterministic for ties.
func TestParseScheduleStableSort(t *testing.T) {
	sc, err := ParseSchedule(strings.NewReader(`{
		"initial": {"satellites": 4},
		"schedule": [
			{"at": "10m", "spec": {"satellites": 7}},
			{"at": "5m",  "spec": {"satellites": 2}},
			{"at": "5m",  "spec": {"satellites": 3}}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Mutations) != 3 {
		t.Fatalf("mutations: %+v", sc.Mutations)
	}
	if time.Duration(sc.Mutations[0].At) != 5*time.Minute || sc.Mutations[0].Spec.Satellites != 2 {
		t.Fatalf("first mutation should be the earlier equal-time entry in file order: %+v", sc.Mutations[0])
	}
	if sc.Mutations[1].Spec.Satellites != 3 || time.Duration(sc.Mutations[2].At) != 10*time.Minute {
		t.Fatalf("equal-time file order / overall sort broken: %+v", sc.Mutations)
	}
}
