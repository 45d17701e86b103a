package obs

import (
	"strings"
	"testing"
)

func TestMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("msgs").Add(3)
	a.Gauge("sockets").Set(2)
	a.Histogram("lat", []int64{10, 100}).Observe(5)
	a.Histogram("lat", []int64{10, 100}).Observe(50)

	b := NewRegistry()
	b.Counter("msgs").Add(4)
	b.Counter("drops").Add(1)
	b.Gauge("sockets").Set(7)
	b.Histogram("lat", []int64{10, 100}).Observe(500)

	m := NewRegistry()
	m.Merge(a)
	m.Merge(b)

	if v := m.Counter("msgs").Value(); v != 7 {
		t.Errorf("msgs = %d, want 7", v)
	}
	if v := m.Counter("drops").Value(); v != 1 {
		t.Errorf("drops = %d, want 1", v)
	}
	if v := m.Gauge("sockets").Value(); v != 9 {
		t.Errorf("sockets = %d, want 9", v)
	}
	h := m.Histogram("lat", nil)
	if h.Count() != 3 || h.Sum() != 555 {
		t.Errorf("lat count=%d sum=%d, want 3/555", h.Count(), h.Sum())
	}
	if c := h.Counts(); c[0] != 1 || c[1] != 1 || c[2] != 1 {
		t.Errorf("lat buckets = %v, want [1 1 1]", c)
	}
}

// TestMergeOrderIndependent: folding registries in any order yields
// byte-identical text output.
func TestMergeOrderIndependent(t *testing.T) {
	mk := func(n int64) *Registry {
		r := NewRegistry()
		r.Counter("c").Add(n)
		r.Gauge("g").Add(n * 2)
		r.Histogram("h", []int64{1, 10}).Observe(n)
		return r
	}
	dump := func(r *Registry) string {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	fwd := NewRegistry()
	rev := NewRegistry()
	regs := []*Registry{mk(1), mk(5), mk(9)}
	for _, r := range regs {
		fwd.Merge(r)
	}
	for i := len(regs) - 1; i >= 0; i-- {
		rev.Merge(regs[i])
	}
	if a, b := dump(fwd), dump(rev); a != b {
		t.Errorf("merge order changed the dump:\n%s\nvs\n%s", a, b)
	}
}

// TestMergeBoundsMismatchPanics pins the incomparable-buckets guard.
func TestMergeBoundsMismatchPanics(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", []int64{1, 2})
	b := NewRegistry()
	b.Histogram("h", []int64{1, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("bounds mismatch did not panic")
		}
	}()
	a.Merge(b)
}

func TestMergeNilSafe(t *testing.T) {
	var r *Registry
	r.Merge(NewRegistry()) // no panic
	NewRegistry().Merge(nil)
}
