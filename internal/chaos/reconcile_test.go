package chaos

import (
	"strings"
	"testing"
	"time"
)

// reconcilePinCfg is the small, fast reconcile-soak configuration whose
// report digest is pinned: full campaign plus the default spec schedule
// (scale-up, then a rolling cordon replacement) at a scale where drains,
// promotes and revivals all fire.
func reconcilePinCfg() ReconcileConfig {
	return ReconcileConfig{
		Seeds:    3,
		Computes: 128,
		Span:     10 * time.Minute,
	}
}

// reconcilePinnedDigest changes only when the simulation's event schedule
// changes — the reconcile soak must be bit-deterministic, and incidental
// changes to the reconciler, drain path, or fault layer must be noticed,
// not slip through.
const reconcilePinnedDigest = "f437fd39cde6c4e5"

func TestReconcileSoakDigestPinned(t *testing.T) {
	a := ReconcileSoak(reconcilePinCfg())
	b := ReconcileSoak(reconcilePinCfg())
	if a.String() != b.String() {
		t.Fatalf("same config produced different reports:\n%s\n---\n%s", a.String(), b.String())
	}
	if v := a.Violations(); v != 0 {
		t.Fatalf("pinned config has %d violations:\n%s", v, a.String())
	}
	if got := a.Digest(); got != reconcilePinnedDigest {
		t.Errorf("report digest = %s, pinned %s; if the event schedule changed intentionally, update reconcilePinnedDigest\n%s",
			got, reconcilePinnedDigest, a.String())
	}
	if !strings.Contains(a.String(), "digest="+reconcilePinnedDigest) {
		t.Error("report does not carry its own digest")
	}
}

// TestReconcileSoakWorkerSweep: the report is byte-identical for any
// Workers value, zero (GOMAXPROCS) included — seed-level fan-out must not
// leak into results.
func TestReconcileSoakWorkerSweep(t *testing.T) {
	one := reconcilePinCfg()
	one.Workers = 1
	base := ReconcileSoak(one)
	for _, workers := range []int{0, 2, 4} {
		cfg := reconcilePinCfg()
		cfg.Workers = workers
		got := ReconcileSoak(cfg)
		if got.String() != base.String() {
			t.Fatalf("workers=%d report differs from workers=1:\n%s\n---\n%s",
				workers, got.String(), base.String())
		}
		if got.Digest() != base.Digest() {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", workers, got.Digest(), base.Digest())
		}
	}
}

// TestReconcileSoakConvergesEverySeed: the convergence contract across a
// wider seed range than the pinned config — every seed reaches spec
// within the round budget after the last fault heals, with the reconciler
// visibly working (drains and promotes fire somewhere in the sweep).
func TestReconcileSoakConvergesEverySeed(t *testing.T) {
	cfg := reconcilePinCfg()
	cfg.Seeds = 6
	rep := ReconcileSoak(cfg)
	if v := rep.Violations(); v != 0 {
		t.Fatalf("%d violations:\n%s", v, rep.String())
	}
	drains, promotes, specs := 0, 0, 0
	for _, s := range rep.Seeds {
		if !s.Converged {
			t.Errorf("seed %d did not converge (%d rounds after heal)", s.Seed, s.RoundsAfterHeal)
		}
		if s.RoundsAfterHeal > reconcileConvergeRounds {
			t.Errorf("seed %d used %d rounds after heal, budget %d", s.Seed, s.RoundsAfterHeal, reconcileConvergeRounds)
		}
		if s.Broadcasts != rep.Config.Broadcasts {
			t.Errorf("seed %d resolved %d/%d broadcasts", s.Seed, s.Broadcasts, rep.Config.Broadcasts)
		}
		drains += s.Drains
		promotes += s.Promotes
		specs += s.SpecUpdates
	}
	if drains == 0 || promotes == 0 {
		t.Fatalf("soak exercised nothing: drains=%d promotes=%d", drains, promotes)
	}
	if want := cfg.Seeds * 2; specs != want {
		t.Fatalf("spec updates = %d, want %d (2 scheduled mutations per seed)", specs, want)
	}
}

// TestReconcileCountsRoundsAfterLastHeal: RoundsAfterHeal counts from
// the campaign's last heal, not from a fixed minute past the span. At the
// benchmark's reconcile scale (2,048 computes, 12-minute span), seed 5's
// campaign heals its last fault 78 s past the span, after a
// Span+1m wait would already have started counting.
func TestReconcileCountsRoundsAfterLastHeal(t *testing.T) {
	cfg := ReconcileConfig{Computes: 2048, Span: 12 * time.Minute}
	sr := runReconcileSeed(cfg, 5, false)
	if sr.lastHeal <= cfg.Span+time.Minute {
		t.Fatalf("seed 5's last heal is at %v, no later than span+1m (%v): the case no longer tests the wait",
			sr.lastHeal, cfg.Span+time.Minute)
	}
	t.Logf("last heal at %v, round counting from %v", sr.lastHeal, sr.countFrom)
	if sr.countFrom < sr.lastHeal {
		t.Errorf("round counting started at %v, before the campaign's last heal at %v", sr.countFrom, sr.lastHeal)
	}
	if len(sr.Violations) != 0 {
		t.Errorf("violations: %v", sr.Violations)
	}
}
