// Package stats provides the descriptive statistics and time-series
// utilities the experiment harness reports with: streaming summaries
// (mean/min/max/percentiles), time-weighted averages for gauge-like
// series (concurrent sockets), and CSV export of sampled series so the
// paper's figures can be re-plotted from raw data.
//
// Determinism: all accumulators are insertion-ordered and purely
// arithmetic (percentiles sort copies), so the same observation sequence
// always renders the same report bytes.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary accumulates scalar observations for reporting.
type Summary struct {
	values []float64
	sum    float64
	min    float64
	max    float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if len(s.values) == 0 || v < s.min {
		s.min = v
	}
	if len(s.values) == 0 || v > s.max {
		s.max = v
	}
	s.values = append(s.values, v)
	s.sum += v
}

// N returns the observation count.
func (s *Summary) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for empty).
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest observation (0 for empty).
func (s *Summary) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 for empty).
func (s *Summary) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.max
}

// Stddev returns the population standard deviation.
func (s *Summary) Stddev() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	mu := s.Mean()
	acc := 0.0
	for _, v := range s.values {
		d := v - mu
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on the sorted observations.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// String renders a one-line digest.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g min=%.3g p50=%.3g p95=%.3g max=%.3g",
		s.N(), s.Mean(), s.Min(), s.Percentile(50), s.Percentile(95), s.Max())
}

// TimeWeighted integrates a step-function gauge (e.g. concurrent sockets)
// over virtual time: the average is ∫value·dt / span.
type TimeWeighted struct {
	last     float64
	lastAt   time.Duration
	weighted float64
	started  bool
	startAt  time.Duration
}

// Observe records the gauge's new value at virtual time at. Observations
// must be time-ordered.
func (t *TimeWeighted) Observe(at time.Duration, value float64) {
	if !t.started {
		t.started = true
		t.startAt = at
	} else {
		t.weighted += t.last * (at - t.lastAt).Seconds()
	}
	t.last = value
	t.lastAt = at
}

// AvgAt returns the time-weighted average over [start, at].
func (t *TimeWeighted) AvgAt(at time.Duration) float64 {
	if !t.started || at <= t.startAt {
		return 0
	}
	w := t.weighted + t.last*(at-t.lastAt).Seconds()
	return w / (at - t.startAt).Seconds()
}

// Series is a named sequence of (t, value) points — one figure line.
type Series struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// Append adds a point.
func (s *Series) Append(at time.Duration, v float64) {
	s.Times = append(s.Times, at)
	s.Values = append(s.Values, v)
}

// WriteCSV renders one or more series sharing a time axis as CSV:
// header "seconds,<name1>,<name2>,..."; rows align by index (series must
// be sampled on the same schedule — the experiment samplers are).
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0].Times)
	for _, s := range series {
		if len(s.Times) != n {
			return fmt.Errorf("stats: series %q has %d points, want %d", s.Name, len(s.Times), n)
		}
	}
	var sb strings.Builder
	sb.WriteString("seconds")
	for _, s := range series {
		sb.WriteString(",")
		sb.WriteString(s.Name)
	}
	sb.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%.0f", series[0].Times[i].Seconds())
		for _, s := range series {
			fmt.Fprintf(&sb, ",%g", s.Values[i])
		}
		sb.WriteString("\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
