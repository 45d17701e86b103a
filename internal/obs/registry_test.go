package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"eslurm/internal/obs"
)

func TestNilRegistryHandsOutInertInstruments(t *testing.T) {
	var r *obs.Registry
	c := r.Counter("a")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil-registry counter holds %d", c.Value())
	}
	g := r.Gauge("b")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatalf("nil-registry gauge holds %d", g.Value())
	}
	h := r.Histogram("c", []int64{1})
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 || h.Counts() != nil || h.Bounds() != nil {
		t.Fatal("nil-registry histogram recorded")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
	if r.CounterValue("a") != 0 {
		t.Fatal("nil-registry counter value non-zero")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x") != c {
		t.Fatal("second lookup built a new counter")
	}
	g := r.Gauge("x") // same name, different kind: distinct instrument
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	// CounterValue reads without registering: an absent name is 0 and
	// stays absent from the snapshot.
	if r.CounterValue("x") != 5 || r.CounterValue("absent") != 0 || len(r.Snapshot()) != 2 {
		t.Fatalf("CounterValue x=%d absent=%d over %d instruments, want 5, 0 over 2",
			r.CounterValue("x"), r.CounterValue("absent"), len(r.Snapshot()))
	}
}

// TestHistogramBucketBoundaries pins the edge semantics: upper bounds
// are inclusive, values above the last bound land in the overflow
// bucket, and values below the first bound (including negatives) land
// in the first.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat", []int64{10, 20})
	for _, v := range []int64{-5, 0, 10, 11, 20, 21, 1000} {
		h.Observe(v)
	}
	want := []int64{3, 2, 2} // (-inf,10], (10,20], (20,+inf)
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != -5+0+10+11+20+21+1000 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestHistogramUnsortedBoundsAndRebind(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("h", []int64{20, 10}) // sorted at registration
	h.Observe(15)
	if h.Counts()[1] != 1 {
		t.Fatalf("15 not in (10,20] bucket: %v", h.Counts())
	}
	// Re-registering with different bounds returns the original.
	if h2 := r.Histogram("h", []int64{1}); h2 != h || len(h2.Bounds()) != 2 {
		t.Fatal("re-registration replaced the histogram")
	}
}

func TestSnapshotOrderIsStable(t *testing.T) {
	r := obs.NewRegistry()
	// Register deliberately out of name order and across kinds.
	r.Gauge("zz").Set(1)
	r.Counter("mm").Inc()
	r.Histogram("aa", []int64{5}).Observe(3)
	r.Counter("aa").Add(2) // same name as the histogram

	var names []string
	for _, m := range r.Snapshot() {
		names = append(names, m.Kind+":"+m.Name)
	}
	want := "counter:aa,histogram:aa,counter:mm,gauge:zz"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("snapshot order %s, want %s", got, want)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	wantText := strings.Join([]string{
		"counter aa 2",
		"histogram aa count=1 sum=3",
		"  le=5 1",
		"  le=+Inf 1",
		"counter mm 1",
		"gauge zz 1",
		"",
	}, "\n")
	if buf.String() != wantText {
		t.Fatalf("text dump:\n%s\nwant:\n%s", buf.String(), wantText)
	}
}
