package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one host-time interval recorded by the benchmark around a call
// into a layer. Parent is a span id (index+1), 0 for a root; Iter names
// the workload iteration or probe the span belongs to, so all spans of
// one iteration share an identifier.
type span struct {
	Name       string
	Parent     int
	Iter       string
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps host-time spans in memory until the pass ends. A nil
// recorder records nothing, so untraced passes call it unconditionally.
// It is used from one goroutine only.
type recorder struct {
	epoch time.Time
	iter  string
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// setIter labels the spans started from now on.
func (r *recorder) setIter(id string) {
	if r != nil {
		r.iter = id
	}
}

// start opens a span under parent and returns its id (0 on nil).
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Iter: r.iter, Start: time.Since(r.epoch), End: -1})
	return len(r.spans)
}

// end closes the span and returns its duration (0 on nil).
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	s := &r.spans[id-1]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (children clipped to the parent,
// overlaps counted once). Unclosed spans have zero length.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent > 0 && s.End >= s.Start {
			kids[s.Parent-1] = append(kids[s.Parent-1], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ivs {
			a, b := max(k.a, edge), min(k.b, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeChrome dumps the spans as Chrome trace JSON (chrome://tracing,
// Perfetto): one complete ("X") event per closed span, microsecond
// timestamps, with the span's id, parent, iteration id and self time as
// args.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := selfTimes(r.spans)
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]any{"id": i + 1, "parent": s.Parent, "iter": s.Iter, "self_us": us(self[i])},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
