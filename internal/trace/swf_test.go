package trace

import (
	"strings"
	"testing"
	"time"
)

func TestSWFRoundTrip(t *testing.T) {
	tr := Generate(Tianhe2AConfig(500))
	var sb strings.Builder
	if err := tr.WriteSWF(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSWF(strings.NewReader(sb.String()), tr.Jobs[0].Cores/tr.Jobs[0].Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("parsed %d jobs, wrote %d", len(back.Jobs), len(tr.Jobs))
	}
	for i := range tr.Jobs {
		a, b := &tr.Jobs[i], &back.Jobs[i]
		// Second-granularity round trip.
		if int64(a.Submit.Seconds()) != int64(b.Submit.Seconds()) {
			t.Fatalf("job %d submit %v vs %v", i, a.Submit, b.Submit)
		}
		if int64(a.Runtime.Seconds()) != int64(b.Runtime.Seconds()) {
			t.Fatalf("job %d runtime %v vs %v", i, a.Runtime, b.Runtime)
		}
		if a.Cores != b.Cores {
			t.Fatalf("job %d cores %d vs %d", i, a.Cores, b.Cores)
		}
		if int64(a.UserEstimate.Seconds()) != int64(b.UserEstimate.Seconds()) {
			t.Fatalf("job %d estimate %v vs %v", i, a.UserEstimate, b.UserEstimate)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseSWFHandConstructed(t *testing.T) {
	const swf = `
; a comment line
   ; indented comment

1 0 5 3600 64 -1 -1 64 7200 -1 1 42 -1 7 -1 -1 -1 -1
2 60 -1 100 -1 -1 -1 24 -1 -1 1 42 -1 7 -1 -1 -1 -1
3 120 -1 0 16 -1 -1 16 600 -1 0 9 -1 -1 -1 -1 -1 -1
`
	tr, err := ParseSWF(strings.NewReader(swf), 24)
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 has runtime 0 (cancelled) and is dropped.
	if len(tr.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(tr.Jobs))
	}
	j := tr.Jobs[0]
	if j.Runtime != 3600*time.Second || j.Cores != 64 || j.Nodes != 3 {
		t.Fatalf("job 1 = %+v", j)
	}
	if j.UserEstimate != 7200*time.Second {
		t.Fatalf("estimate = %v", j.UserEstimate)
	}
	if j.User != "user042" || !strings.Contains(j.Name, "app7") {
		t.Fatalf("identity = %q %q", j.User, j.Name)
	}
	// Job 2: no requested time (-1) -> estimate defaults to 2x runtime;
	// requested procs present.
	j2 := tr.Jobs[1]
	if j2.UserEstimate != 200*time.Second || j2.Nodes != 1 {
		t.Fatalf("job 2 = %+v", j2)
	}
	// Same (app, user) share a name: the estimation framework's locality
	// feature survives the SWF round trip.
	if tr.Jobs[0].Name != tr.Jobs[1].Name {
		t.Error("same app+user produced different names")
	}
}

func TestParseSWFErrors(t *testing.T) {
	cases := []string{
		"1 0 -1",                         // too few fields
		"x 0 -1 10 1 -1 -1 1 10 -1 -1 1", // non-numeric
		"1 100 -1 10 1 -1 -1 1 10 -1 -1 1\n2 50 -1 10 1 -1 -1 1 10 -1 -1 1", // disorder
		"1 0 -1 9223372036854775807 1 -1 -1 1 10 -1 -1 1",                   // runtime overflows a Duration
	}
	for _, c := range cases {
		if _, err := ParseSWF(strings.NewReader(c), 24); err == nil {
			t.Errorf("ParseSWF(%q) did not fail", c)
		}
	}
}

func TestSWFReplaysThroughEstimator(t *testing.T) {
	// End-to-end: synthetic trace -> SWF -> parse -> the parsed jobs keep
	// enough structure for the locality analyses.
	tr := Generate(NGTianheConfig(2000))
	var sb strings.Builder
	tr.WriteSWF(&sb)
	back, err := ParseSWF(strings.NewReader(sb.String()), 96)
	if err != nil {
		t.Fatal(err)
	}
	f := back.OverestimateFraction()
	if f < 0.7 {
		t.Errorf("overestimation lost in round trip: %v", f)
	}
	if back.ResubmissionProbability24h() < 0.5 {
		t.Error("resubmission locality lost in round trip")
	}
}
