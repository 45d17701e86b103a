package chaos

import (
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
)

// teardownRun builds a small, quiet stack for exercising the teardown
// checks on one seeded defect each.
func teardownRun(trace bool) *seedRun {
	return newSeedRun(1, cluster.Config{Computes: 16, Satellites: 2}, trace, soakRetry(), 0)
}

// TestTeardownNamesOpenSpan: a span the stack never ends is reported by
// name, once, at teardown.
func TestTeardownNamesOpenSpan(t *testing.T) {
	r := teardownRun(true)
	r.c.RunUntil(time.Minute)
	r.e.Tracer().Start("leaked.span", 0)
	r.teardown(0, r.m.Stop)
	if len(r.violations) != 1 || !strings.Contains(r.violations[0], "1 span(s) still open") ||
		!strings.Contains(r.violations[0], "leaked.span") {
		t.Fatalf("violations = %q, want exactly one naming leaked.span", r.violations)
	}
}

// TestTeardownNamesLiveTicker: a ticker that outlives the components'
// Stop is reported once and the teardown returns instead of draining an
// engine that can never run dry.
func TestTeardownNamesLiveTicker(t *testing.T) {
	r := teardownRun(false)
	r.e.Every(time.Second, func() {})
	r.c.RunUntil(time.Minute)
	r.teardown(0, r.m.Stop)
	if len(r.violations) != 1 || !strings.Contains(r.violations[0], "1 ticker(s) still live after Stop") {
		t.Fatalf("violations = %q, want exactly one live-ticker violation", r.violations)
	}
}

// TestTracedReconcileSeedEndsEverySpan holds the reconcile soak's
// asynchronous spans (broadcasts, sends, drains, rounds) to the teardown's
// open-span check; the seed's report must not move with tracing on.
func TestTracedReconcileSeedEndsEverySpan(t *testing.T) {
	cfg := reconcilePinCfg()
	for seed := int64(1); seed <= 2; seed++ {
		plain := RunReconcileSeed(cfg, seed)
		traced := runReconcileSeed(cfg, seed, true)
		if len(traced.Violations) != 0 {
			t.Fatalf("seed %d: traced violations %q", seed, traced.Violations)
		}
		if traced.Events != plain.Events || traced.Drains != plain.Drains {
			t.Fatalf("seed %d: tracing moved the run: events %d vs %d, drains %d vs %d",
				seed, traced.Events, plain.Events, traced.Drains, plain.Drains)
		}
	}
}
