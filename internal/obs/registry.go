package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"eslurm/internal/mapkeys"
)

// Counter is a monotonically increasing count. Instruments are plain
// int64s — the simulation is single-threaded, so no atomics — and every
// method is safe on a nil receiver, so code holding an instrument from a
// nil registry still runs.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is a caller bug but is not checked: counters
// are trusted internal instruments, not an API boundary).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level (outstanding sends, queue depth).
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v += delta
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets: bounds[i] is the
// inclusive upper edge of bucket i, with one implicit overflow bucket
// above the last bound. Bounds are fixed at registration so every run of
// the same build snapshots identical shapes.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1; the last is the overflow bucket
	count  int64
	sum    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Bounds returns the bucket upper edges (shared storage: read only).
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns the per-bucket counts, overflow last (shared storage:
// read only).
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// Registry is a name-indexed set of instruments. Get-or-create lookups
// (Counter, Gauge, Histogram) are meant for wiring time — hot paths
// should cache the returned instrument. All methods are nil-safe: a nil
// registry hands out nil instruments whose methods no-op.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterValue returns the named counter's count, 0 when the registry has
// no such counter. Unlike Counter it registers nothing, so reading a
// registry this way leaves its dump as it was.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters[name].Value()
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper edges on first use. A later call with the same
// name returns the existing histogram; its original bounds win.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		bs := append([]int64(nil), bounds...)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// Metric is one instrument in a snapshot.
type Metric struct {
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	Name string
	// Value is the counter count or gauge level (histograms: 0).
	Value int64
	// Hist is set for histograms only.
	Hist *Histogram
}

// Snapshot returns every instrument sorted by name (ties broken by
// kind), a stable order independent of registration or map iteration
// order — the property the byte-stable text dump and every report
// builds on.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, name := range mapkeys.Sorted(r.counters) {
		out = append(out, Metric{Kind: "counter", Name: name})
	}
	for _, name := range mapkeys.Sorted(r.gauges) {
		out = append(out, Metric{Kind: "gauge", Name: name})
	}
	for _, name := range mapkeys.Sorted(r.hists) {
		out = append(out, Metric{Kind: "histogram", Name: name})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	for i := range out {
		switch out[i].Kind {
		case "counter":
			out[i].Value = r.counters[out[i].Name].Value()
		case "gauge":
			out[i].Value = r.gauges[out[i].Name].Value()
		case "histogram":
			out[i].Hist = r.hists[out[i].Name]
		}
	}
	return out
}

// WriteText writes the byte-stable dump of the registry: one line per
// counter/gauge, a header plus cumulative le= lines per histogram, in
// snapshot order.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "histogram":
			h := m.Hist
			if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%d\n", m.Name, h.Count(), h.Sum()); err != nil {
				return err
			}
			cum := int64(0)
			for i, c := range h.Counts() {
				cum += c
				edge := "+Inf"
				if i < len(h.Bounds()) {
					edge = strconv.FormatInt(h.Bounds()[i], 10)
				}
				if _, err := fmt.Fprintf(w, "  le=%s %d\n", edge, cum); err != nil {
					return err
				}
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s %d\n", m.Kind, m.Name, m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
