package critpath_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eslurm/internal/obs"
	"eslurm/internal/obs/critpath"
)

var update = flag.Bool("update", false, "rewrite golden files")

type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// span builds one ended span for direct-slice tests.
func span(name string, parent obs.SpanID, start, end time.Duration, attrs ...obs.Attr) obs.Span {
	return obs.Span{Name: name, Parent: parent, Start: start, End: end, Ended: true, Attrs: attrs}
}

func instant(name string, parent obs.SpanID, at time.Duration) obs.Span {
	return obs.Span{Name: name, Parent: parent, Start: at, Instant: true}
}

func analyzeOne(t *testing.T, spans []obs.Span) *critpath.Report {
	t.Helper()
	return critpath.Analyze([]critpath.Source{{Label: "t", Group: "g", Spans: spans}}, critpath.Options{})
}

// kindTime pulls one kind's attributed time out of the only group.
func kindTime(t *testing.T, rep *critpath.Report, name string) time.Duration {
	t.Helper()
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1\n%s", len(rep.Groups), rep.String())
	}
	for _, k := range rep.Groups[0].Kinds {
		if k.Name == name {
			return k.Time
		}
	}
	return 0
}

func TestBackwardWalkPartition(t *testing.T) {
	// root [0,100]; A [10,40]; B [30,90]. The backward walk attributes
	// (90,100] to root, (30,90] to B, and [0,30] back to root: A ends
	// past the frontier left by B's start, so it never claims time.
	spans := []obs.Span{
		span("master.broadcast", 0, 0, 100),
		span("a", 1, 10, 40),
		span("b", 1, 30, 90),
	}
	rep := analyzeOne(t, spans)
	if rep.Roots != 1 || rep.Total != 100 {
		t.Fatalf("roots=%d total=%v\n%s", rep.Roots, rep.Total, rep.String())
	}
	if got := kindTime(t, rep, "master.broadcast"); got != 40 {
		t.Errorf("root self = %v, want 40ns", got)
	}
	if got := kindTime(t, rep, "b"); got != 60 {
		t.Errorf("b self = %v, want 60ns", got)
	}
	if got := kindTime(t, rep, "a"); got != 0 {
		t.Errorf("a self = %v, want 0", got)
	}
	// Self times over the critical path partition the root exactly.
	var sum time.Duration
	for _, k := range rep.Groups[0].Kinds {
		sum += k.Time
	}
	if sum != 100 {
		t.Errorf("attribution sums to %v, want the root's 100ns", sum)
	}
	if len(rep.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(rep.Paths))
	}
	wantChain := "master.broadcast[40ns]->b[60ns]"
	if got := rep.String(); !strings.Contains(got, wantChain) {
		t.Errorf("report missing chain %q:\n%s", wantChain, got)
	}
}

func TestNestedAttribution(t *testing.T) {
	// root [0,100] -> send [20,95] -> inner [30,90]: root gets
	// (95,100]+[0,20]=25, send gets (90,95]+(20,30]=15, inner gets 60.
	spans := []obs.Span{
		span("root", 0, 0, 100),
		span("send", 1, 20, 95),
		span("inner", 2, 30, 90),
	}
	rep := analyzeOne(t, spans)
	if got := kindTime(t, rep, "root"); got != 25 {
		t.Errorf("root = %v, want 25", got)
	}
	if got := kindTime(t, rep, "send"); got != 15 {
		t.Errorf("send = %v, want 15", got)
	}
	if got := kindTime(t, rep, "inner"); got != 60 {
		t.Errorf("inner = %v, want 60", got)
	}
}

func TestTieBreakRule(t *testing.T) {
	// Three children all ending at 80: the walk must pick max Start
	// first, then the highest id. Only "late" (start 50) wins the spine.
	spans := []obs.Span{
		span("root", 0, 0, 80),
		span("early", 1, 10, 80),
		span("late", 1, 50, 80),
		span("mid", 1, 30, 80),
	}
	rep := analyzeOne(t, spans)
	if got := kindTime(t, rep, "late"); got != 30 {
		t.Errorf("late = %v, want 30", got)
	}
	// After descending into late, the frontier is 50; mid and early end
	// at 80 > 50, so they are skipped and root keeps [0,50].
	if got := kindTime(t, rep, "root"); got != 50 {
		t.Errorf("root = %v, want 50", got)
	}

	// Same End and Start: the higher id (recorded later) wins.
	spans = []obs.Span{
		span("root", 0, 0, 80),
		span("first", 1, 50, 80),
		span("second", 1, 50, 80),
	}
	rep = analyzeOne(t, spans)
	if got := kindTime(t, rep, "second"); got != 30 {
		t.Errorf("second = %v, want 30", got)
	}
	if got := kindTime(t, rep, "first"); got != 0 {
		t.Errorf("first = %v, want 0", got)
	}
}

func TestZeroDurationAndInstantChildren(t *testing.T) {
	spans := []obs.Span{
		span("root", 0, 0, 100),
		span("zero", 1, 60, 60), // zero-duration: claims no self time
		instant("comm.retry", 1, 40),
		instant("note", 1, 70),
	}
	rep := analyzeOne(t, spans)
	if rep.Instants != 2 {
		t.Errorf("instants = %d, want 2", rep.Instants)
	}
	if got := kindTime(t, rep, "zero"); got != 0 {
		t.Errorf("zero-duration span claimed %v", got)
	}
	if got := kindTime(t, rep, "root"); got != 100 {
		t.Errorf("root = %v, want 100", got)
	}
	// The comm.retry child marks the root as retry-carrying: its whole
	// attributed time counts as retry time.
	if rep.RetryTime != 100 || rep.Retries != 1 {
		t.Errorf("retryTime=%v retries=%d, want 100/1", rep.RetryTime, rep.Retries)
	}
}

func TestOpenRootsAndOrphans(t *testing.T) {
	spans := []obs.Span{
		span("done", 0, 0, 50),
		{Name: "open", Start: 10},          // never ended: skipped, counted
		span("orphan", 99, 20, 40),         // parent id unresolvable: analyzed as root
		{Name: "fwd", Parent: 5, Start: 0}, // forward reference: also orphan (and open)
	}
	rep := analyzeOne(t, spans)
	if rep.Roots != 2 {
		t.Errorf("roots = %d, want 2 (done + orphan)", rep.Roots)
	}
	if rep.Open != 2 {
		t.Errorf("open = %d, want 2", rep.Open)
	}
	if rep.Orphans != 2 {
		t.Errorf("orphans = %d, want 2", rep.Orphans)
	}
	if rep.Total != 70 {
		t.Errorf("total = %v, want 70", rep.Total)
	}
}

func TestRebuildAttribution(t *testing.T) {
	// Two fptree.plan spans under one root: the first is construction,
	// the second is a rebuild; only the second's time counts as rebuild.
	spans := []obs.Span{
		span("master.broadcast", 0, 0, 100),
		span("fptree.plan", 1, 0, 10),
		span("fptree.plan", 1, 60, 100),
	}
	rep := analyzeOne(t, spans)
	if got := kindTime(t, rep, "fptree.plan"); got != 50 {
		t.Errorf("fptree.plan = %v, want 50 (10 + 40)", got)
	}
	if rep.RebuildTime != 40 {
		t.Errorf("rebuildTime = %v, want 40 (second plan only)", rep.RebuildTime)
	}
}

func TestGroupKeyStructureAndTargets(t *testing.T) {
	spans := []obs.Span{
		span("master.broadcast", 0, 0, 100, obs.Int("targets", 512)),
		span("comm.broadcast", 1, 5, 95, obs.String("structure", "fptree")),
	}
	rep := analyzeOne(t, spans)
	want := "g root=master.broadcast structure=fptree targets=512"
	if len(rep.Groups) != 1 || rep.Groups[0].Key != want {
		t.Fatalf("group key = %q, want %q", rep.Groups[0].Key, want)
	}
}

func TestAdoptCount(t *testing.T) {
	spans := []obs.Span{
		span("master.broadcast", 0, 0, 100),
		instant("comm.adopt", 1, 30),
		instant("comm.adopt", 1, 60),
	}
	rep := analyzeOne(t, spans)
	if rep.Adopts != 2 {
		t.Errorf("adopts = %d, want 2", rep.Adopts)
	}
}

func TestTopKBound(t *testing.T) {
	var spans []obs.Span
	for i := 0; i < 8; i++ {
		spans = append(spans, span("r", 0, 0, time.Duration(100+i)))
	}
	rep := critpath.Analyze([]critpath.Source{{Label: "t", Group: "g", Spans: spans}}, critpath.Options{TopK: 3})
	if len(rep.Paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(rep.Paths))
	}
	// Slowest first.
	if rep.Paths[0].Dur != 107 || rep.Paths[2].Dur != 105 {
		t.Errorf("path durs = %v, %v; want 107, 105", rep.Paths[0].Dur, rep.Paths[2].Dur)
	}
}

// buildSeedTrace records a realistic two-broadcast scenario through a
// real Tracer, used by the golden and round-trip tests.
func buildSeedTrace() []obs.Span {
	c := &fakeClock{}
	tr := obs.NewTracer(c.Now)
	root := tr.Start("master.broadcast", 0, obs.Int("targets", 4))
	bc := tr.Start("comm.broadcast", root, obs.String("structure", "ktree"), obs.Int("targets", 4))
	c.now = 2 * time.Microsecond
	s1 := tr.Start("comm.send", bc)
	c.now = 5 * time.Microsecond
	tr.Instant("comm.retry", s1, obs.Int("attempt", 2))
	c.now = 9 * time.Microsecond
	tr.End(s1)
	s2 := tr.Start("comm.send", bc)
	c.now = 14 * time.Microsecond
	tr.End(s2)
	tr.End(bc)
	c.now = 15 * time.Microsecond
	tr.End(root)

	root2 := tr.Start("master.broadcast", 0, obs.Int("targets", 4))
	bc2 := tr.Start("comm.broadcast", root2, obs.String("structure", "fptree"), obs.Int("targets", 4))
	p1 := tr.Start("fptree.plan", bc2)
	c.now = 17 * time.Microsecond
	tr.End(p1)
	s3 := tr.Start("comm.send", bc2)
	c.now = 21 * time.Microsecond
	tr.End(s3)
	p2 := tr.Start("fptree.plan", bc2) // rebuild after a fault
	c.now = 23 * time.Microsecond
	tr.End(p2)
	tr.Instant("comm.adopt", bc2, obs.Int("node", 9))
	s4 := tr.Start("comm.send", bc2)
	c.now = 30 * time.Microsecond
	tr.End(s4)
	tr.End(bc2)
	tr.End(root2)
	return tr.Spans()
}

func TestReportGolden(t *testing.T) {
	rep := critpath.Analyze([]critpath.Source{
		{Label: "seed 1", Group: "soak", Spans: buildSeedTrace()},
	}, critpath.Options{TopK: 2})
	got := rep.String()

	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("report drifted from golden (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestReportDeterminism(t *testing.T) {
	src := []critpath.Source{{Label: "seed 1", Group: "soak", Spans: buildSeedTrace()}}
	a := critpath.Analyze(src, critpath.Options{})
	b := critpath.Analyze(src, critpath.Options{})
	if a.String() != b.String() {
		t.Fatal("two analyses of the same spans produced different bytes")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("digests differ for identical analyses")
	}
}

func TestParseRoundTrip(t *testing.T) {
	rep := critpath.Analyze([]critpath.Source{
		{Label: "seed 1", Group: "soak", Spans: buildSeedTrace()},
	}, critpath.Options{})
	text := rep.String()
	back, err := critpath.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.String(); got != text {
		t.Fatalf("round trip changed bytes:\nfirst:\n%s\nsecond:\n%s", text, got)
	}
}

func TestParseRejectsTamperedDigest(t *testing.T) {
	rep := analyzeOne(t, []obs.Span{span("root", 0, 0, 100)})
	text := strings.Replace(rep.String(), "roots=1", "roots=2", 1)
	if _, err := critpath.Parse(strings.NewReader(text)); err == nil {
		t.Fatal("Parse accepted a tampered report")
	}
	if _, err := critpath.Parse(strings.NewReader("not a report\n")); err == nil {
		t.Fatal("Parse accepted garbage")
	}
}
