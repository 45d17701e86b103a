package reconcile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/config"
)

// Duration is a time.Duration that unmarshals from JSON either as a Go
// duration string ("150s", "5m") or as an integer nanosecond count; a
// mutation's At is one.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("reconcile: bad duration %q", s)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Spec is the declarative cluster spec the reconciler drives toward: the
// desired satellite count with replica bounds and the administratively
// cordoned satellites. The master's own parameters (tree width,
// reallocation limit, heartbeat cadence) are not part of it: they come
// from core.Config when the master is built.
type Spec struct {
	// Satellites is the desired number of schedulable (non-cordoned)
	// satellites in service.
	Satellites int `json:"satellites"`
	// MinSatellites / MaxSatellites bound the replica count; the target is
	// clamped into [min, max] (either bound may be 0 = unbounded).
	MinSatellites int `json:"min_satellites,omitempty"`
	MaxSatellites int `json:"max_satellites,omitempty"`
	// Cordoned lists satellite node IDs to hold out of service: each is
	// gracefully drained (in-flight tasks resolve up to the deadline) and
	// kept DOWN while it remains in the spec.
	Cordoned []cluster.NodeID `json:"cordoned,omitempty"`
}

// Normalized returns a copy with the cordon list sorted and deduplicated
// and the target clamped into [MinSatellites, MaxSatellites]. The
// reconciler only ever holds normalized specs, so its per-round iteration
// order is deterministic by construction.
func (s Spec) Normalized() Spec {
	out := s
	out.Cordoned = append([]cluster.NodeID(nil), s.Cordoned...)
	sort.Slice(out.Cordoned, func(i, j int) bool { return out.Cordoned[i] < out.Cordoned[j] })
	k := 0
	for i, id := range out.Cordoned {
		if i == 0 || id != out.Cordoned[k-1] {
			out.Cordoned[k] = id
			k++
		}
	}
	out.Cordoned = out.Cordoned[:k]
	if out.MinSatellites > 0 && out.Satellites < out.MinSatellites {
		out.Satellites = out.MinSatellites
	}
	if out.MaxSatellites > 0 && out.Satellites > out.MaxSatellites {
		out.Satellites = out.MaxSatellites
	}
	return out
}

// Validate rejects self-contradictory specs.
func (s Spec) Validate() error {
	if s.Satellites < 0 || s.MinSatellites < 0 || s.MaxSatellites < 0 {
		return fmt.Errorf("reconcile: negative satellite counts in spec")
	}
	if s.MaxSatellites > 0 && s.MinSatellites > s.MaxSatellites {
		return fmt.Errorf("reconcile: min_satellites %d > max_satellites %d", s.MinSatellites, s.MaxSatellites)
	}
	for _, id := range s.Cordoned {
		if id <= 0 {
			return fmt.Errorf("reconcile: cordoned ID %d is not a satellite (satellites are IDs 1..m)", id)
		}
	}
	return nil
}

// Mutation is one timed spec change in a schedule.
type Mutation struct {
	// At is the simulated time the mutation applies.
	At Duration `json:"at"`
	// Spec replaces the reconciler's spec wholesale at that time.
	Spec Spec `json:"spec"`
}

// Schedule is a spec plus timed mid-run mutations, the eslurmctl -spec
// file format.
type Schedule struct {
	Initial   Spec       `json:"initial"`
	Mutations []Mutation `json:"schedule,omitempty"`
}

// ParseSchedule reads a JSON spec schedule: {"initial": {...},
// "schedule": [{"at": "5m", "spec": {...}}, ...]}, the one JSON entry
// point. Unknown fields are errors, so a typoed knob (or a master
// parameter such as tree_width, which a spec does not carry) fails loudly
// instead of silently keeping a default. Mutations are sorted by time
// (stably, so equal-time mutations keep file order and the resulting
// engine schedule is deterministic).
func ParseSchedule(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Schedule
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("reconcile: parsing spec schedule: %v", err)
	}
	if err := sc.Initial.Validate(); err != nil {
		return nil, fmt.Errorf("reconcile: initial spec: %v", err)
	}
	sc.Initial = sc.Initial.Normalized()
	for i := range sc.Mutations {
		if sc.Mutations[i].At < 0 {
			return nil, fmt.Errorf("reconcile: mutation %d: negative time", i)
		}
		if err := sc.Mutations[i].Spec.Validate(); err != nil {
			return nil, fmt.Errorf("reconcile: mutation %d: %v", i, err)
		}
		sc.Mutations[i].Spec = sc.Mutations[i].Spec.Normalized()
	}
	sort.SliceStable(sc.Mutations, func(i, j int) bool { return sc.Mutations[i].At < sc.Mutations[j].At })
	return &sc, nil
}

// FromConfig derives a spec and reconciler options from eslurm.conf keys
// (SatelliteTarget/Min/Max, CordonedSatellites, ReconcileInterval,
// DrainDeadline). Satellite hosts map onto node IDs positionally: the
// i-th SatelliteNodes entry is node ID 1+i, matching cluster.New's
// layout. An unset target defaults to the full satellite list.
func FromConfig(c *config.Config) (Spec, Config, error) {
	s := Spec{
		Satellites:    c.SatelliteTarget,
		MinSatellites: c.SatelliteMin,
		MaxSatellites: c.SatelliteMax,
	}
	if s.Satellites == 0 {
		s.Satellites = len(c.SatelliteNodes)
	}
	for _, name := range c.CordonedSatellites {
		idx := -1
		for i, sn := range c.SatelliteNodes {
			if sn == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return Spec{}, Config{}, fmt.Errorf("reconcile: cordoned satellite %q is not in SatelliteNodes", name)
		}
		s.Cordoned = append(s.Cordoned, cluster.NodeID(1+idx))
	}
	if err := s.Validate(); err != nil {
		return Spec{}, Config{}, err
	}
	opts := Config{Interval: c.ReconcileInterval, DrainDeadline: c.DrainDeadline}
	return s.Normalized(), opts, nil
}
