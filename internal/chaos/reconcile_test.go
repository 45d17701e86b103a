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
const reconcilePinnedDigest = "f58c84e0d8eedee6"

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
// Workers value — seed-level fan-out must not leak into results.
func TestReconcileSoakWorkerSweep(t *testing.T) {
	base := ReconcileSoak(reconcilePinCfg())
	for _, workers := range []int{2, 4} {
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
