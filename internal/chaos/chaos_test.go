package chaos

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/comm"
	"eslurm/internal/core"
	"eslurm/internal/monitor"
	"eslurm/internal/obs"
	"eslurm/internal/satellite"
	"eslurm/internal/simnet"
	"eslurm/internal/testutil"
)

// pinCfg is the small, fast configuration whose report digest is pinned:
// adversities cranked well above the defaults so loss, duplication,
// retries, partitions and satellite kills all fire even at this scale.
func pinCfg() Config {
	cfg := Config{
		Seeds:      2,
		Computes:   128,
		Satellites: 2,
		Span:       5 * time.Minute,
		Broadcasts: 8,
	}
	cfg = cfg.withDefaults()
	cfg.LossProb = 0.02
	cfg.DupProb = 0.02
	cfg.SilentFraction = 0.25
	return cfg
}

// pinnedDigest is the report digest for pinCfg. It changes only when the
// simulation's event schedule changes — which is exactly what it is here
// to detect: the soak must be bit-deterministic, and incidental changes
// to the fault layer must be noticed, not slip through.
const pinnedDigest = "cb7bfff5ead0fa05"

func TestSoakDeterministicDigest(t *testing.T) {
	a := Soak(pinCfg())
	b := Soak(pinCfg())
	if a.String() != b.String() {
		t.Fatalf("same config produced different reports:\n%s\n---\n%s", a.String(), b.String())
	}
	if v := a.Violations(); v != 0 {
		t.Fatalf("pinned config has %d violations:\n%s", v, a.String())
	}
	if got := a.Digest(); got != pinnedDigest {
		t.Errorf("report digest = %s, pinned %s; if the event schedule changed intentionally, update pinnedDigest\n%s",
			got, pinnedDigest, a.String())
	}
	if !strings.Contains(a.String(), "digest="+pinnedDigest) {
		t.Errorf("rendered report does not carry its digest")
	}
}

// TestSoakDefaultMixAtScale is the acceptance run: the default campaign
// mix at ≥1,024 nodes must hold every invariant. Under the race detector
// the seed count shrinks to stay inside CI's budget.
func TestSoakDefaultMixAtScale(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Computes < 1024 {
		t.Fatalf("default soak runs at %d < 1024 computes", cfg.Computes)
	}
	if testutil.RaceEnabled || testing.Short() {
		cfg.Seeds = 2
	}
	rep := Soak(cfg)
	if v := rep.Violations(); v != 0 {
		t.Fatalf("%d invariant violations at scale:\n%s", v, rep.String())
	}
	for _, s := range rep.Seeds {
		if s.Broadcasts != cfg.Broadcasts {
			t.Errorf("seed %d resolved %d/%d broadcasts", s.Seed, s.Broadcasts, cfg.Broadcasts)
		}
		if s.Delivered == 0 {
			t.Errorf("seed %d delivered nothing", s.Seed)
		}
	}
}

// TestDrainedPoolFallback kills every satellite and asserts the master's
// graceful-degradation path: the pool census reaches Drained, the monitor
// observes the demotions through its alert pipeline, and a broadcast with
// zero running satellites still completes via direct tree broadcast.
func TestDrainedPoolFallback(t *testing.T) {
	e := simnet.NewEngine(11)
	c := cluster.New(e, cluster.Config{Computes: 96, Satellites: 3})
	mon := monitor.New(c, monitor.Config{})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	m.B.RecordResolved = true
	mon.ObservePool(m.Pool)

	var poolAlerts []monitor.Alert
	mon.Subscribe(func(a monitor.Alert) {
		if a.Indicator == "satellite.pool" {
			poolAlerts = append(poolAlerts, a)
		}
	})
	var demotions int
	prev := m.Pool.OnChange
	m.Pool.OnChange = func(s *satellite.Satellite, from, to satellite.State, h satellite.Health) {
		if prev != nil {
			prev(s, from, to, h)
		}
		if to == satellite.Fault || to == satellite.Down {
			demotions++
		}
	}

	m.Start()
	// Kill every satellite shortly after boot, permanently.
	for _, id := range c.Satellites() {
		c.ScheduleFailure(id, 5*time.Second, 0)
	}

	var res *comm.Result
	// 200s is past the first heartbeat sweep (150s), which marks the dead
	// satellites FAULT; the pool is then fully drained.
	e.Schedule(200*time.Second, func() {
		if !m.Pool.Drained() {
			t.Errorf("pool not drained before broadcast: %+v", m.Pool.Health())
		}
		if r := m.Pool.RunningCount(); r != 0 {
			t.Errorf("%d satellites still RUNNING", r)
		}
		m.Broadcast(c.Computes(), 4096, func(r comm.Result) {
			res = &r
		})
	})

	e.RunUntil(10 * time.Minute)
	m.Stop()
	e.Run()

	if res == nil {
		t.Fatal("broadcast with drained pool never resolved")
	}
	if got := res.Delivered + len(res.Unreachable); got != len(c.Computes()) {
		t.Errorf("partition invariant: delivered %d + unreachable %d != %d targets",
			res.Delivered, len(res.Unreachable), len(c.Computes()))
	}
	if res.Delivered != len(c.Computes()) {
		t.Errorf("all computes are healthy, yet delivered = %d of %d", res.Delivered, len(c.Computes()))
	}
	if st := m.Stats(); st.PoolDrainedFallbacks == 0 {
		t.Errorf("PoolDrainedFallbacks = 0; fallback path not attributed (stats %+v)", st)
	}
	if demotions < 3 {
		t.Errorf("pool health observer saw %d demotions, want >= 3", demotions)
	}
	if len(poolAlerts) < 3 {
		t.Errorf("monitor saw %d satellite.pool alerts, want >= 3", len(poolAlerts))
	}
	h := m.Pool.Health()
	if !h.Drained() || h.Alive() != 0 {
		t.Errorf("final pool health not drained: %+v", h)
	}
}

// TestTraceDeterminism pins the observability determinism contract: the
// same seed soaked twice with tracing enabled yields byte-identical span
// recordings and Chrome exports, and enabling tracing does not move the
// report digest off its pin.
func TestTraceDeterminism(t *testing.T) {
	cfg := pinCfg()
	cfg.Seeds = 1
	cfg.Trace = true

	run := func() SeedResult { return RunSeed(cfg, cfg.BaseSeed) }
	a, b := run(), run()
	if a.Trace == nil || b.Trace == nil {
		t.Fatal("Config.Trace did not arm the tracer")
	}
	if a.Trace.Len() == 0 {
		t.Fatal("soak recorded zero spans with tracing on")
	}
	if da, db := a.Trace.Digest(), b.Trace.Digest(); da != db {
		t.Fatalf("same seed produced different trace digests: %x vs %x", da, db)
	}

	var ca, cb strings.Builder
	if err := obs.WriteChrome(&ca, obs.Process{PID: int(a.Seed), Name: "seed", T: a.Trace}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChrome(&cb, obs.Process{PID: int(b.Seed), Name: "seed", T: b.Trace}); err != nil {
		t.Fatal(err)
	}
	if ca.String() != cb.String() {
		t.Fatal("same seed produced different Chrome exports")
	}

	// The pinned digest must not care whether tracing was on.
	traced := Soak(func() Config { c := pinCfg(); c.Trace = true; return c }())
	if got := traced.Digest(); got != pinnedDigest {
		t.Errorf("tracing moved the report digest: %s != pinned %s", got, pinnedDigest)
	}

	// Registry metrics cover at least the driven broadcasts' retries (the
	// registry also sees heartbeat and task traffic the report does not).
	if n := a.Metrics.Counter("comm.retries").Value(); int(n) < a.Retries {
		t.Errorf("registry comm.retries = %d < report's %d", n, a.Retries)
	}
}

// TestSeedReplayMatchesSoak pins the replay story: running one seed alone
// reproduces exactly the row the full soak computed for it.
func TestSeedReplayMatchesSoak(t *testing.T) {
	cfg := pinCfg()
	rep := Soak(cfg)
	for _, want := range rep.Seeds {
		got := RunSeed(cfg, want.Seed)
		if got.Events != want.Events || got.Delivered != want.Delivered ||
			got.Unreachable != want.Unreachable || got.Retries != want.Retries {
			t.Errorf("seed %d replay diverged: got %+v want %+v", want.Seed, got, want)
		}
	}
}

// TestSoakMatchesSerial holds Soak, which runs its seeds side by side, to
// a plain loop of RunSeed calls: the same report and digest, byte for
// byte, whatever GOMAXPROCS is (CI runs it at -cpu 1,4).
func TestSoakMatchesSerial(t *testing.T) {
	cfg := pinCfg()
	cfg.Seeds = 4
	serial := &Report{Config: cfg}
	for i := 0; i < cfg.Seeds; i++ {
		serial.Seeds = append(serial.Seeds, RunSeed(cfg, cfg.BaseSeed+int64(i)))
	}
	got := Soak(cfg)
	if got.String() != serial.String() {
		t.Fatalf("Soak report differs from the serial loop's:\n%s\n---\n%s", got.String(), serial.String())
	}
	if got.Digest() != serial.Digest() {
		t.Fatalf("Soak digest %s != serial digest %s", got.Digest(), serial.Digest())
	}
}

// TestCheckPartition plants each way a broadcast result can break
// invariants 1 and 3 — a target missing, a target resolved twice, a node
// that was never a target, and counters that disagree with the identities
// — and requires checkPartition to report every one, and nothing on a
// clean result, whatever order the result lists its nodes in.
func TestCheckPartition(t *testing.T) {
	targets := []cluster.NodeID{9, 3, 7, 1, 12, 5}
	run := &seedRun{seed: 1} // one scratch array across every case, as in a seed
	clean := func() comm.Result {
		return comm.Result{Delivered: 4, Resolved: []cluster.NodeID{7, 9, 12, 3}, Unreachable: []cluster.NodeID{5, 1}}
	}
	for _, tc := range []struct {
		name  string
		plant func(r *comm.Result)
		want  int // violations
	}{
		{"clean", func(*comm.Result) {}, 0},
		{"missing", func(r *comm.Result) { r.Resolved = r.Resolved[:3]; r.Delivered = 3 }, 1},
		{"duplicated", func(r *comm.Result) { r.Resolved[1] = 7 }, 1},
		{"duplicated across lists", func(r *comm.Result) { r.Unreachable[0] = 12 }, 1},
		{"stranger", func(r *comm.Result) { r.Resolved[2] = 4 }, 1},
		{"stranger beyond every target", func(r *comm.Result) { r.Unreachable[1] = 1 << 20 }, 1},
		{"count mismatch", func(r *comm.Result) { r.Delivered = 5 }, 2},
	} {
		res := clean()
		tc.plant(&res)
		run.violations = nil
		run.checkPartition(0, targets, res)
		if got := run.violations; len(got) != tc.want {
			t.Errorf("%s: %d violations %q, want %d", tc.name, len(got), got, tc.want)
		}
	}
}

// TestAllocsPerDeliveredTarget is the soak's allocation budget: one seed
// of the full adversarial mix (loss, duplication, partitions, gray nodes,
// satellite kills, retries with backoff) at 256 computes, counted in heap
// objects per delivered target. A broadcast target costs no object of its
// own (pooled chains, the tree is its list); what is left is per
// broadcast, per campaign event and per relay, spread over the targets.
// A closure, a node or a chain per message again shows here as a whole
// extra object per target.
func TestAllocsPerDeliveredTarget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := Config{Computes: 256, Satellites: 2, Span: 5 * time.Minute, Broadcasts: 8, LossProb: 0.01, DupProb: 0.01}
	var sr SeedResult
	got := testing.AllocsPerRun(1, func() { sr = RunSeed(cfg, 1) })
	if len(sr.Violations) != 0 || sr.Delivered == 0 {
		t.Fatalf("seed 1: %d delivered, violations %q", sr.Delivered, sr.Violations)
	}
	per := got / float64(sr.Delivered)
	const budget = 0.9 // measured 0.69 (Go 1.24, linux/amd64): mostly the seed's setup
	if per > budget {
		t.Errorf("%.0f objects for %d delivered targets: %.3f per target, budget %.1f", got, sr.Delivered, per, budget)
	}
}

// TestAllocsBytesPerDeliveredTarget is the soak's allocation budget in
// bytes: one seed of the default mix at the acceptance scale, its heap
// allocation (runtime.MemStats.TotalAlloc) over its delivered targets.
// The tree list, the result lists and the partition check's count array
// are recycled within the seed, so what is left is mostly the stack's
// construction; a list, a copy or a count array per broadcast again shows
// here as kilobytes per hundred targets.
func TestAllocsBytesPerDeliveredTarget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sr := RunSeed(cfg, 1)
	runtime.ReadMemStats(&after)
	if len(sr.Violations) != 0 || sr.Delivered == 0 {
		t.Fatalf("seed 1: %d delivered, violations %q", sr.Delivered, sr.Violations)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(sr.Delivered)
	const budget = 40.0 // measured 33.1 (Go 1.24, linux/amd64); 79.5 before the lists were recycled
	if per > budget {
		t.Errorf("%d bytes for %d delivered targets: %.2f per target, budget %.1f",
			after.TotalAlloc-before.TotalAlloc, sr.Delivered, per, budget)
	}
}
