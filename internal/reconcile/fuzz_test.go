package reconcile

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// specSeeds are the spec shapes the parser tests accept or reject.
var specSeeds = []string{
	`{"satellites": 3, "min_satellites": 2, "max_satellites": 8, "cordoned": [3, 1, 3], "tree_width": 50, "realloc_limit": 2, "heartbeat_interval": "150s"}`,
	`{"satellites": 10, "max_satellites": 4, "heartbeat_interval": 5000000000}`,
	`{"satellites": 1, "min_satellites": 3}`,
	`{"satelites": 3}`,
	`{"min_satellites": 5, "max_satellites": 2}`,
	`{"heartbeat_interval": "-10s"}`,
	`{"heartbeat_interval": null, "cordoned": [0]}`,
	`{}`,
	`{`,
}

// checkSpec holds a spec the parser accepted to what the reconciler relies
// on: it validates, it is already normalized (cordons sorted and unique,
// target inside its bounds), and its JSON form parses back to itself.
func checkSpec(t *testing.T, s Spec) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("parsed spec fails Validate: %v", err)
	}
	if n := s.Normalized(); !reflect.DeepEqual(n, s) {
		t.Fatalf("parsed spec %+v is not normalized: %+v", s, n)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("re-parsing %s: %v", b, err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("%+v round-tripped through %s to %+v", s, b, back)
	}
}

// FuzzParseSpec feeds arbitrary bytes to ParseSpec: an error or a spec
// checkSpec accepts, never a panic.
func FuzzParseSpec(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ParseSpec(bytes.NewReader(b))
		if err != nil {
			return
		}
		checkSpec(t, s)
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
		f.Add([]byte(`{"initial": ` + s + `, "schedule": [{"at": "1m", "spec": ` + s + `}]}`))
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
