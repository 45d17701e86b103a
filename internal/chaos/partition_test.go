package chaos

import (
	"strings"
	"testing"
	"time"

	"eslurm/internal/faults"
)

// partSoakConfig is the fixed configuration the partitioned determinism
// tests pin: big enough to cross rack cells and exercise every fault
// type, small enough for -race CI.
func partSoakConfig(workers int) Config {
	return Config{
		Seeds:      2,
		Computes:   1100, // control cell + 3 rack cells, the last one partial
		Satellites: 2,
		Span:       2 * time.Minute,
		Broadcasts: 6,
		LossProb:   0.01,
		DupProb:    0.01,
		Workers:    workers,
	}
}

// metricsText renders every seed's merged registry.
func metricsText(t *testing.T, rep *Report) string {
	t.Helper()
	var sb strings.Builder
	for _, s := range rep.Seeds {
		if err := s.Metrics.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// TestPartitionedSoakWorkerSweep runs the same soak at 1, 2, 4 and 8
// workers and requires byte-identical reports and merged metrics — the
// kernel's own window counters included. 8 workers exceeds the 4-cell
// layout, covering the clamp.
func TestPartitionedSoakWorkerSweep(t *testing.T) {
	ref := Soak(partSoakConfig(1))
	if ref.Violations() > 0 {
		t.Fatalf("reference soak violated invariants:\n%s", ref.String())
	}
	refS, refM := ref.String(), metricsText(t, ref)
	if !strings.Contains(refM, "simnet.windows_multi_busy") {
		t.Errorf("merged metrics carry no kernel window counters:\n%s", refM)
	}
	for _, w := range []int{2, 4, 8} {
		rep := Soak(partSoakConfig(w))
		if s := rep.String(); s != refS {
			t.Errorf("workers=%d report differs from single-worker run:\n%s\nvs\n%s", w, s, refS)
		}
		if m := metricsText(t, rep); m != refM {
			t.Errorf("workers=%d merged metrics differ from single-worker run", w)
		}
	}
}

// TestPartitionedSoakDigestPinned pins the partitioned soak contract: any
// change to the kernel, wire model, campaign generator, broadcaster or
// master changes this digest and must be made deliberately.
func TestPartitionedSoakDigestPinned(t *testing.T) {
	rep := Soak(partSoakConfig(2))
	if got := rep.Digest(); got != partSoakDigest {
		t.Errorf("partitioned soak digest %s, want %s\n%s", got, partSoakDigest, rep.String())
	}
}

const partSoakDigest = "1b53ca70ba2cf6ee"

// TestPartitionedSoakRunsTheMaster: -shards runs the same soak as one
// cell — core.Master, the satellite pool, takeover and reallocation — so
// over a campaign that kills satellites the master must have split tasks
// across satellites and moved at least one to another.
func TestPartitionedSoakRunsTheMaster(t *testing.T) {
	cfg := partSoakConfig(2)
	cfg.Seeds = 4
	cfg.Spec = faults.ChaosSpec{Bursts: 1, Grays: 1, Partitions: 1, SatelliteKills: 3}
	rep := Soak(cfg)
	if rep.Violations() > 0 {
		t.Fatalf("soak violated invariants:\n%s", rep.String())
	}
	reallocs := 0
	for _, s := range rep.Seeds {
		reallocs += s.Reallocations
		if n := s.Metrics.Counter("master.subtasks").Value(); n == 0 {
			t.Errorf("seed %d: master dispatched no satellite sub-task", s.Seed)
		}
	}
	if reallocs == 0 {
		t.Errorf("no reallocation across %d seeds with satellite kills:\n%s", cfg.Seeds, rep.String())
	}
}

// TestPartitionedSoakAdversarial cranks loss/dup and the campaign and
// checks the invariants still hold (and results remain worker-invariant).
func TestPartitionedSoakAdversarial(t *testing.T) {
	mk := func(workers int) Config {
		return Config{
			Seeds: 1, BaseSeed: 7, Computes: 600, Satellites: 2,
			Span: 2 * time.Minute, Broadcasts: 6, Workers: workers,
			Spec:     faults.ChaosSpec{Bursts: 4, Flaps: 4, Grays: 6, Partitions: 2, SatelliteKills: 2},
			LossProb: 0.05, DupProb: 0.05,
		}
	}
	ref := Soak(mk(1))
	if ref.Violations() > 0 {
		t.Fatalf("adversarial soak violated invariants:\n%s", ref.String())
	}
	if got := Soak(mk(4)).String(); got != ref.String() {
		t.Errorf("workers=4 adversarial report differs:\n%s\nvs\n%s", got, ref.String())
	}
}
