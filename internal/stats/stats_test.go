package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty summary must be all zeros")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 || s.Mean() != 5 || s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("summary = %s", s.String())
	}
	if got := s.Stddev(); math.Abs(got-math.Sqrt(5)) > 1e-9 {
		t.Errorf("stddev = %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50, 95: 95, 100: 100, 99: 99}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Errorf("p%.0f = %v, want %v", p, got, want)
		}
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	if tw.AvgAt(time.Second) != 0 {
		t.Error("empty gauge must average 0")
	}
	// 2 for 10s, then 0 for 10s => avg 1.
	tw.Observe(0, 2)
	tw.Observe(10*time.Second, 0)
	if got := tw.AvgAt(20 * time.Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("avg = %v, want 1", got)
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "slurm"}
	b := &Series{Name: "eslurm"}
	for i := 0; i < 3; i++ {
		at := time.Duration(i) * time.Second
		a.Append(at, float64(i*10))
		b.Append(at, float64(i))
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	want := "seconds,slurm,eslurm\n0,0,0\n1,10,1\n2,20,2\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestWriteCSVMismatch(t *testing.T) {
	a := &Series{Name: "a"}
	a.Append(0, 1)
	b := &Series{Name: "b"}
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err == nil {
		t.Error("length mismatch not reported")
	}
	if err := WriteCSV(&sb); err != nil {
		t.Error("empty call must be a no-op")
	}
}

// Property: the summary mean always lies within [min, max], and the p50 is
// between them too.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Summary
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		return s.Mean() >= s.Min() && s.Mean() <= s.Max() &&
			s.Percentile(50) >= s.Min() && s.Percentile(50) <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
