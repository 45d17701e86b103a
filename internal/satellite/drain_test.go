package satellite

// Regression coverage for the graceful-drain path: cordon semantics in
// round-robin selection, every drain completion route, and the ISSUE 8
// edge — an external demotion while a drain deadline is pending must not
// double-demote the satellite or leak the deadline timer.

import (
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/simnet"
)

func newTestPool(t *testing.T, n int) (*simnet.Engine, *Pool) {
	t.Helper()
	e := simnet.NewEngine(1)
	var ids []cluster.NodeID
	for i := 1; i <= n; i++ {
		ids = append(ids, cluster.NodeID(i))
	}
	p := NewPool(e, ids)
	for _, s := range p.All() {
		if _, err := p.Apply(s, EvHBSuccess); err != nil {
			t.Fatal(err)
		}
	}
	return e, p
}

func TestCordonSkipsSelection(t *testing.T) {
	_, p := newTestPool(t, 3)
	if !p.Cordon(2) {
		t.Fatal("Cordon(2) = false")
	}
	if p.CordonedCount() != 1 {
		t.Fatalf("CordonedCount = %d, want 1", p.CordonedCount())
	}
	if p.RunningCount() != 2 {
		t.Fatalf("RunningCount = %d, want 2 (cordoned excluded)", p.RunningCount())
	}
	for i := 0; i < 6; i++ {
		s := p.NextRunning()
		if s == nil || s.ID == 2 {
			t.Fatalf("NextRunning returned %v; cordoned satellite must be skipped", s)
		}
	}
	if sel := p.SelectRunning(3); len(sel) != 2 {
		t.Fatalf("SelectRunning(3) = %d satellites, want 2", len(sel))
	}
	if !p.Uncordon(2) {
		t.Fatal("Uncordon(2) = false")
	}
	if p.RunningCount() != 3 {
		t.Fatalf("RunningCount after uncordon = %d, want 3", p.RunningCount())
	}
}

func TestDrainIdleSatelliteImmediate(t *testing.T) {
	_, p := newTestPool(t, 2)
	var clean []bool
	if err := p.Drain(1, time.Minute, func(c bool) { clean = append(clean, c) }); err != nil {
		t.Fatal(err)
	}
	if len(clean) != 1 || !clean[0] {
		t.Fatalf("done calls = %v, want one clean completion", clean)
	}
	if st := p.Get(1).State(); st != Down {
		t.Fatalf("state = %v, want DOWN", st)
	}
	if p.Draining(1) || p.DrainingCount() != 0 {
		t.Fatal("no drain record should remain")
	}
}

func TestDrainWaitsForBusyThenClean(t *testing.T) {
	e, p := newTestPool(t, 2)
	s := p.Get(1)
	p.Apply(s, EvBTAssigned)
	var clean []bool
	if err := p.Drain(1, time.Minute, func(c bool) { clean = append(clean, c) }); err != nil {
		t.Fatal(err)
	}
	if len(clean) != 0 {
		t.Fatal("drain must wait while BUSY")
	}
	if !p.Draining(1) {
		t.Fatal("Draining(1) = false while BUSY")
	}
	// A second drain on the same satellite is refused while one pends.
	if err := p.Drain(1, time.Minute, nil); err == nil {
		t.Fatal("second Drain must error")
	}
	// Uncordon is refused while the drain owns the cordon.
	if p.Uncordon(1) {
		t.Fatal("Uncordon must refuse during a drain")
	}
	e.Schedule(10*time.Second, func() { p.Apply(s, EvBTSuccess) })
	e.RunUntil(20 * time.Second)
	if len(clean) != 1 || !clean[0] {
		t.Fatalf("done calls = %v, want one clean completion", clean)
	}
	if st := s.State(); st != Down {
		t.Fatalf("state = %v, want DOWN", st)
	}
	// The deadline timer must not fire later (it was cancelled): run the
	// engine dry and confirm done was not called again.
	e.Run()
	if len(clean) != 1 {
		t.Fatalf("done called %d times after drain, want exactly 1", len(clean))
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending: drain timer leaked", e.Pending())
	}
}

func TestDrainDeadlineForcesDemotion(t *testing.T) {
	e, p := newTestPool(t, 2)
	s := p.Get(1)
	p.Apply(s, EvBTAssigned)
	var clean []bool
	if err := p.Drain(1, 30*time.Second, func(c bool) { clean = append(clean, c) }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(clean) != 1 || clean[0] {
		t.Fatalf("done calls = %v, want one forced (clean=false) completion", clean)
	}
	if st := s.State(); st != Down {
		t.Fatalf("state = %v, want DOWN", st)
	}
}

// TestExternalDemotionDuringDrain is the ISSUE 8 regression: a satellite
// demoted by another path (here the FAULT-timeout) while its drain
// deadline is still pending must complete the drain exactly once, must
// not be demoted twice (no spurious DOWN→DOWN transition), and must not
// leak the deadline timer.
func TestExternalDemotionDuringDrain(t *testing.T) {
	e, p := newTestPool(t, 2)
	p.FaultTimeout = time.Minute
	s := p.Get(1)
	p.Apply(s, EvBTAssigned)

	downs := 0
	p.OnChange = func(_ *Satellite, _, to State, _ Health) {
		if to == Down {
			downs++
		}
	}

	var clean []bool
	if err := p.Drain(1, time.Hour, func(c bool) { clean = append(clean, c) }); err != nil {
		t.Fatal(err)
	}
	// The satellite faults mid-drain; the FAULT-timeout then demotes it
	// long before the drain's one-hour deadline.
	e.Schedule(10*time.Second, func() { p.Apply(s, EvHBFailure) })
	e.RunUntil(10 * time.Minute)

	if st := s.State(); st != Down {
		t.Fatalf("state = %v, want DOWN", st)
	}
	if len(clean) != 1 || clean[0] {
		t.Fatalf("done calls = %v, want one unclean completion", clean)
	}
	if downs != 1 {
		t.Fatalf("observed %d transitions to DOWN, want exactly 1 (no double demotion)", downs)
	}
	if p.DrainingCount() != 0 {
		t.Fatal("drain record leaked")
	}
	// Drain deadline (t=1h) must have been cancelled, not left pending.
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending: drain deadline timer leaked", e.Pending())
	}
	e.Run()
	if len(clean) != 1 {
		t.Fatalf("done called %d times, want exactly 1", len(clean))
	}
}

// TestShutdownDuringDrain covers the other external demotion route: a
// direct SHUTDOWN while the drain pends completes it (unclean) without a
// second demotion.
func TestShutdownDuringDrain(t *testing.T) {
	e, p := newTestPool(t, 2)
	s := p.Get(1)
	p.Apply(s, EvBTAssigned)
	var clean []bool
	if err := p.Drain(1, time.Hour, func(c bool) { clean = append(clean, c) }); err != nil {
		t.Fatal(err)
	}
	p.Apply(s, EvShutdown)
	if len(clean) != 1 || clean[0] {
		t.Fatalf("done calls = %v, want one unclean completion", clean)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending: deadline timer leaked", e.Pending())
	}
	e.Run()
	if len(clean) != 1 {
		t.Fatalf("done called %d times, want exactly 1", len(clean))
	}
}

func TestDrainDownSatelliteCompletesWithoutTransition(t *testing.T) {
	_, p := newTestPool(t, 2)
	s := p.Get(1)
	p.Apply(s, EvShutdown)
	calls := 0
	if err := p.Drain(1, time.Minute, func(bool) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done calls = %d, want 1", calls)
	}
	if !s.Cordoned() {
		t.Fatal("drained satellite must stay cordoned")
	}
}

func TestPoolReinstate(t *testing.T) {
	_, p := newTestPool(t, 2)
	s := p.Get(1)
	if p.Reinstate(1) {
		t.Fatal("Reinstate of a RUNNING satellite must refuse")
	}
	p.Apply(s, EvShutdown)
	p.Cordon(1)
	transitions := 0
	p.OnChange = func(_ *Satellite, from, to State, _ Health) { transitions++ }
	if !p.Reinstate(1) {
		t.Fatal("Reinstate(1) = false")
	}
	if st := s.State(); st != Unknown {
		t.Fatalf("state = %v, want UNKNOWN", st)
	}
	if s.Cordoned() {
		t.Fatal("Reinstate must uncordon")
	}
	if transitions != 1 {
		t.Fatalf("OnChange fired %d times, want 1 (DOWN→UNKNOWN observed)", transitions)
	}
	if p.Reinstate(99) {
		t.Fatal("Reinstate of unknown ID must refuse")
	}
}

// TestDeadlineAndDemotionSameInstant lands the drain deadline and an
// external SHUTDOWN at the same virtual instant, in both event orders:
// whichever runs first settles the drain, the other finds nothing left
// to settle, and done runs exactly once with one demotion.
func TestDeadlineAndDemotionSameInstant(t *testing.T) {
	for _, shutdownFirst := range []bool{true, false} {
		e, p := newTestPool(t, 2)
		s := p.Get(1)
		p.Apply(s, EvBTAssigned)
		downs := 0
		p.OnChange = func(_ *Satellite, _, to State, _ Health) {
			if to == Down {
				downs++
			}
		}
		const at = 30 * time.Second
		shutdown := func() { p.Apply(s, EvShutdown) }
		// Same-instant events run in scheduling order.
		if shutdownFirst {
			e.Schedule(at, shutdown)
		}
		var clean []bool
		if err := p.Drain(1, at, func(c bool) { clean = append(clean, c) }); err != nil {
			t.Fatal(err)
		}
		if !shutdownFirst {
			e.Schedule(at, shutdown)
		}
		e.Run()
		if len(clean) != 1 || clean[0] {
			t.Fatalf("shutdownFirst=%t: done calls = %v, want one unclean completion", shutdownFirst, clean)
		}
		if downs != 1 {
			t.Fatalf("shutdownFirst=%t: %d transitions to DOWN, want 1", shutdownFirst, downs)
		}
		if p.DrainingCount() != 0 {
			t.Fatalf("shutdownFirst=%t: drain record leaked", shutdownFirst)
		}
	}
}

// TestDrainSettlesOnce drives settle twice directly: the first call hands
// its verdict to done, the second is a no-op.
func TestDrainSettlesOnce(t *testing.T) {
	var clean []bool
	d := &drainRec{done: func(c bool) { clean = append(clean, c) }}
	d.settle(true)
	d.settle(false)
	if len(clean) != 1 || !clean[0] {
		t.Fatalf("done calls = %v, want exactly one clean completion", clean)
	}
}
