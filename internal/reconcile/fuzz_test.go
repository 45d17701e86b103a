package reconcile

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// specSeeds are the spec shapes the parser tests accept or reject.
var specSeeds = []string{
	`{"satellites": 3, "min_satellites": 2, "max_satellites": 8, "cordoned": [3, 1, 3]}`,
	`{"satellites": 3, "cordoned": [3, 1], "tree_width": 50, "realloc_limit": 2, "heartbeat_interval": "150s"}`,
	`{"satellites": 10, "max_satellites": 4}`,
	`{"satellites": 1, "min_satellites": 3}`,
	`{"satelites": 3}`,
	`{"min_satellites": 5, "max_satellites": 2}`,
	`{"heartbeat_interval": "-10s"}`,
	`{"cordoned": [0]}`,
	`{}`,
	`{`,
}

// checkSpec holds a spec the parser accepted to what the reconciler relies
// on: it validates, it is already normalized (cordons sorted and unique,
// target inside its bounds), and its JSON form, as a schedule's initial
// spec, parses back to itself.
func checkSpec(t *testing.T, s Spec) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("parsed spec fails Validate: %v", err)
	}
	if n := s.Normalized(); !reflect.DeepEqual(n, s) {
		t.Fatalf("parsed spec %+v is not normalized: %+v", s, n)
	}
	b, err := json.Marshal(Schedule{Initial: s})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSchedule(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("re-parsing %s: %v", b, err)
	}
	if !reflect.DeepEqual(back.Initial, s) {
		t.Fatalf("%+v round-tripped through %s to %+v", s, b, back.Initial)
	}
}

// FuzzParseSpec feeds arbitrary bytes to ParseSchedule as a schedule's
// initial spec: an error or a spec checkSpec accepts, never a panic.
func FuzzParseSpec(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in := append(append([]byte(`{"initial": `), b...), '}')
		sc, err := ParseSchedule(bytes.NewReader(in))
		if err != nil {
			return
		}
		checkSpec(t, sc.Initial)
	})
}

// FuzzParseSchedule feeds arbitrary bytes to ParseSchedule: an error or a
// schedule whose specs all pass checkSpec and whose mutations are in time
// order at non-negative times.
func FuzzParseSchedule(f *testing.F) {
	f.Add([]byte(`{"initial": {"satellites": 4}, "schedule": [
		{"at": "10m", "spec": {"satellites": 7}},
		{"at": "5m", "spec": {"satellites": 2, "cordoned": [2, 1]}},
		{"at": 300000000000, "spec": {"satellites": 3}}]}`))
	f.Add([]byte(`{"initial": {}, "schedule": [{"at": "-5m", "spec": {}}]}`))
	f.Add([]byte(`{"initial": {}, "schdule": []}`))
	for _, s := range specSeeds {
		for _, in := range specForms(s, `"1m"`) {
			f.Add([]byte(in))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sc, err := ParseSchedule(bytes.NewReader(b))
		if err != nil {
			return
		}
		checkSpec(t, sc.Initial)
		for i, m := range sc.Mutations {
			if m.At < 0 || (i > 0 && m.At < sc.Mutations[i-1].At) {
				t.Fatalf("mutation %d at %v out of order or negative", i, m.At)
			}
			checkSpec(t, m.Spec)
		}
	})
}
