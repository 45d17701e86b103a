package chaos

import (
	"strings"
	"testing"
)

// partitionedCritpath runs the pinned partitioned soak config with tracing
// on and returns its critical-path report text.
func partitionedCritpath(t *testing.T, workers int) string {
	t.Helper()
	cfg := partSoakConfig(workers)
	cfg.Trace = true
	rep := Soak(cfg)
	if rep.Violations() > 0 {
		t.Fatalf("soak violated invariants:\n%s", rep.String())
	}
	return rep.CritpathReport(5).String()
}

// TestPartitionedCritpathWorkerInvariant is the tentpole acceptance pin: the
// same-seed critical-path report is byte-identical across reruns and
// across worker counts, and its digest is pinned — any change to span
// emission, the DAG stitch, or the attribution walk moves it and must be
// deliberate.
func TestPartitionedCritpathWorkerInvariant(t *testing.T) {
	ref := partitionedCritpath(t, 1)
	if again := partitionedCritpath(t, 1); again != ref {
		t.Fatal("same-seed rerun produced different critpath report bytes")
	}
	for _, w := range []int{2, 4} {
		if got := partitionedCritpath(t, w); got != ref {
			t.Errorf("workers=%d critpath report differs from workers=1:\n%s\nvs\n%s", w, got, ref)
		}
	}
	const want = "digest=a0826999e835e824"
	if !strings.Contains(ref, want) {
		tail := ref
		if i := strings.LastIndex(tail, "digest="); i >= 0 {
			tail = tail[i:]
		}
		t.Errorf("partitioned critpath report digest moved off its pin: got %s want %s", strings.TrimSpace(tail), want)
	}
}

// TestPartitionedSoakDigestUnchangedByTracing proves span recording
// across cells is passive: the pinned soak digest is identical with
// per-cell tracing armed.
func TestPartitionedSoakDigestUnchangedByTracing(t *testing.T) {
	cfg := partSoakConfig(2)
	cfg.Trace = true
	rep := Soak(cfg)
	if got := rep.Digest(); got != partSoakDigest {
		t.Errorf("tracing moved the partitioned soak digest: %s != pinned %s", got, partSoakDigest)
	}
	for _, s := range rep.Seeds {
		if len(s.CellTraces) == 0 {
			t.Fatalf("seed %d carried no cell traces with Trace set", s.Seed)
		}
		n := 0
		for _, tr := range s.CellTraces {
			n += tr.Len()
		}
		if n == 0 {
			t.Fatalf("seed %d recorded zero spans across cells", s.Seed)
		}
	}
}

// TestOneCellCritpathDeterminism: the one-cell soak's critical-path
// report is byte-identical across reruns of the same seed.
func TestOneCellCritpathDeterminism(t *testing.T) {
	run := func() string {
		cfg := pinCfg()
		cfg.Seeds = 1
		cfg.Trace = true
		rep := Soak(cfg)
		return rep.CritpathReport(5).String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed critpath reports differ:\n%s\nvs\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty critpath report from a traced soak")
	}
}
