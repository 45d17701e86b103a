package reconcile

import (
	"strings"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/config"
	"eslurm/internal/core"
	"eslurm/internal/satellite"
	"eslurm/internal/simnet"
)

// harness builds a running stack: engine, cluster, started master.
func harness(t *testing.T, seed int64, sats int) (*simnet.Engine, *cluster.Cluster, *core.Master) {
	t.Helper()
	e := simnet.NewEngine(seed)
	c := cluster.New(e, cluster.Config{Computes: 32, Satellites: sats})
	m := core.NewMaster(c, core.DefaultConfig(), nil)
	m.Start()
	e.RunUntil(5 * time.Second) // initial probes promote every satellite
	return e, c, m
}

func runningNonCordoned(p *satellite.Pool) int {
	n := 0
	for _, s := range p.All() {
		if !s.Cordoned() && (s.State() == satellite.Running || s.State() == satellite.Busy) {
			n++
		}
	}
	return n
}

func TestScaleDownThenUpConverges(t *testing.T) {
	e, _, m := harness(t, 1, 4)
	rec := New(m, Spec{Satellites: 2}, Config{Interval: 20 * time.Second})
	rec.Start()
	e.RunUntil(e.Now() + time.Minute)
	st := rec.Status()
	if !st.Converged {
		t.Fatalf("not converged after scale-down: %+v", st)
	}
	if st.Drains != 2 {
		t.Fatalf("Drains = %d, want 2", st.Drains)
	}
	if got := runningNonCordoned(m.Pool); got != 2 {
		t.Fatalf("in-service satellites = %d, want 2", got)
	}
	if h := m.Pool.Health(); h.Down != 2 {
		t.Fatalf("parked standbys = %d, want 2", h.Down)
	}

	// Scale back up: the parked standbys are reinstated and probed.
	rec.SetSpec(Spec{Satellites: 4})
	if rec.Converged() {
		t.Fatal("SetSpec must reset convergence")
	}
	e.RunUntil(e.Now() + 2*time.Minute)
	st = rec.Status()
	if !st.Converged {
		t.Fatalf("not converged after scale-up: %+v", st)
	}
	if st.Promotes != 2 {
		t.Fatalf("Promotes = %d, want 2", st.Promotes)
	}
	if got := runningNonCordoned(m.Pool); got != 4 {
		t.Fatalf("in-service satellites = %d, want 4", got)
	}
	rec.Stop()
	m.Stop()
	e.Run()
}

func TestRollingCordonReplacement(t *testing.T) {
	e, _, m := harness(t, 2, 4)
	rec := New(m, Spec{Satellites: 3}, Config{Interval: 20 * time.Second})
	rec.Start()
	e.RunUntil(e.Now() + time.Minute)
	if !rec.Converged() {
		t.Fatalf("initial spec not converged: %+v", rec.Status())
	}

	// Cordon satellite 1 keeping the target: the reconciler must drain it
	// and promote the parked standby in the same round — a rolling
	// takeover.
	rec.SetSpec(Spec{Satellites: 3, Cordoned: []cluster.NodeID{1}})
	e.RunUntil(e.Now() + 2*time.Minute)
	st := rec.Status()
	if !st.Converged {
		t.Fatalf("not converged after cordon: %+v", st)
	}
	if st.Takeovers != 1 {
		t.Fatalf("Takeovers = %d, want 1", st.Takeovers)
	}
	s1 := m.Pool.Get(1)
	if s1.State() != satellite.Down || !s1.Cordoned() {
		t.Fatalf("cordoned satellite: state=%v cordoned=%v, want DOWN and cordoned", s1.State(), s1.Cordoned())
	}
	if got := runningNonCordoned(m.Pool); got != 3 {
		t.Fatalf("in-service satellites = %d, want 3", got)
	}

	// Dropping the cordon returns it to the standby pool; with the target
	// already met it stays DOWN.
	rec.SetSpec(Spec{Satellites: 3})
	e.RunUntil(e.Now() + time.Minute)
	if !rec.Converged() {
		t.Fatalf("not converged after uncordon: %+v", rec.Status())
	}
	if s1.State() != satellite.Down {
		t.Fatalf("standby state = %v, want DOWN", s1.State())
	}
	rec.Stop()
	m.Stop()
	e.Run()
}

// TestBreakerOpensOnCrashLoop: a satellite severed from the master (node
// up, heartbeats dead) crash-loops on every revival; the backoff must
// space the attempts and the circuit breaker must open rather than
// livelock the loop.
func TestBreakerOpensOnCrashLoop(t *testing.T) {
	e, c, m := harness(t, 3, 2)
	m.Pool.FaultTimeout = 30 * time.Second
	// Sever satellite 2 behind a partition that never heals: probes fail,
	// but the node is not Failed, so revival attempts proceed and fault.
	c.Net.SchedulePartition([]cluster.NodeID{2}, e.Now(), 24*time.Hour)
	e.RunUntil(e.Now())
	const interval = 20 * time.Second
	rec := New(m, Spec{Satellites: 2}, Config{Interval: interval})
	rec.Start()

	// The promote bound, from the self-healing constants. A failed revival
	// is seen the round after its promote, and the next promote waits out
	// the backoff from there: while the breaker is closed, revival i+1
	// comes at least interval + backoffBase·2^(i-1) after revival i.
	// Revival breakerThreshold opens the breaker, so the next one comes
	// at least interval + breakerCooldown later, and the one after that
	// interval + backoffBase·2^breakerThreshold later (below backoffMax).
	// Revival breakerThreshold+2 thus comes at least window after the
	// first, which itself waits a round: a window-long run holds at most
	// breakerThreshold+1 revivals, and the breaker opening needs
	// breakerThreshold of them. Without the backoff, or without the
	// breaker's cooldown, more revivals fit.
	window := time.Duration(breakerThreshold+1)*interval + breakerCooldown + backoffBase<<breakerThreshold
	for i := 0; i < breakerThreshold-1; i++ {
		window += backoffBase << i
	}
	e.RunUntil(e.Now() + window)
	st := rec.Status()
	if st.Converged {
		t.Fatal("cannot converge with a severed satellite; Converged must be false")
	}
	if st.BreakerOpens == 0 {
		t.Fatalf("breaker never opened: %+v", st)
	}
	if st.Promotes < breakerThreshold || st.Promotes > breakerThreshold+1 {
		t.Fatalf("Promotes = %d in %v, want %d..%d: backoff+breaker bound the revival attempts",
			st.Promotes, window, breakerThreshold, breakerThreshold+1)
	}
	if st.Rounds < 30 {
		t.Fatalf("Rounds = %d; the loop itself must keep running", st.Rounds)
	}
	rec.Stop()
	m.Stop()
	e.Run()
}

// TestReconcilerDeterminism: the same seed and spec schedule replay to an
// identical status and event count.
func TestReconcilerDeterminism(t *testing.T) {
	run := func() (Status, uint64) {
		e, c, m := harness(t, 7, 4)
		m.Pool.FaultTimeout = time.Minute
		c.ScheduleFailure(2, 2*time.Minute, 3*time.Minute)
		rec := New(m, Spec{Satellites: 3}, Config{Interval: 20 * time.Second})
		rec.Start()
		rec.ScheduleMutations([]Mutation{
			{At: Duration(4 * time.Minute), Spec: Spec{Satellites: 4}},
			{At: Duration(8 * time.Minute), Spec: Spec{Satellites: 2, Cordoned: []cluster.NodeID{1}}},
		})
		e.RunUntil(16 * time.Minute)
		rec.Stop()
		m.Stop()
		e.Run()
		return rec.Status(), e.Processed()
	}
	st1, ev1 := run()
	st2, ev2 := run()
	if st1 != st2 {
		t.Fatalf("status diverged across same-seed runs:\n%+v\n%+v", st1, st2)
	}
	if ev1 != ev2 {
		t.Fatalf("event counts diverged: %d vs %d", ev1, ev2)
	}
	if !st1.Converged {
		t.Fatalf("schedule did not converge: %+v", st1)
	}
}

func TestParseSpecAndSchedule(t *testing.T) {
	sc, err := ParseSchedule(strings.NewReader(`{"initial": {
		"satellites": 3, "min_satellites": 2, "max_satellites": 8,
		"cordoned": [4, 2, 4]}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := sc.Initial
	if s.Satellites != 3 || s.MinSatellites != 2 || s.MaxSatellites != 8 {
		t.Fatalf("counts: %+v", s)
	}
	if len(s.Cordoned) != 2 || s.Cordoned[0] != 2 || s.Cordoned[1] != 4 {
		t.Fatalf("cordon list not sorted+deduped: %v", s.Cordoned)
	}

	if _, err := ParseSchedule(strings.NewReader(`{"initial": {"satelites": 3}}`)); err == nil {
		t.Fatal("typoed field must error (unknown fields disallowed)")
	}
	if _, err := ParseSchedule(strings.NewReader(`{"initial": {"min_satellites": 5, "max_satellites": 2}}`)); err == nil {
		t.Fatal("min > max must error")
	}

	sc, err = ParseSchedule(strings.NewReader(`{
		"initial": {"satellites": 4},
		"schedule": [
			{"at": "10m", "spec": {"satellites": 2}},
			{"at": "5m", "spec": {"satellites": 5}}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Initial.Satellites != 4 || len(sc.Mutations) != 2 {
		t.Fatalf("schedule: %+v", sc)
	}
	if time.Duration(sc.Mutations[0].At) != 5*time.Minute {
		t.Fatalf("mutations not sorted by time: %+v", sc.Mutations)
	}
	if _, err := ParseSchedule(strings.NewReader(`{"initial": {"satellites": -1}}`)); err == nil {
		t.Fatal("invalid initial spec must error")
	}
}

func TestNormalizedClampsTarget(t *testing.T) {
	s := Spec{Satellites: 10, MaxSatellites: 4}.Normalized()
	if s.Satellites != 4 {
		t.Fatalf("clamp to max: %d", s.Satellites)
	}
	s = Spec{Satellites: 1, MinSatellites: 3}.Normalized()
	if s.Satellites != 3 {
		t.Fatalf("clamp to min: %d", s.Satellites)
	}
}

func TestFromConfig(t *testing.T) {
	conf, err := config.Parse(strings.NewReader(`
ClusterName=test
SatelliteNodes=sat[1-4]
SatelliteTarget=3
SatelliteMin=1
SatelliteMax=4
CordonedSatellites=sat2
ReconcileInterval=45s
DrainDeadline=2m
`))
	if err != nil {
		t.Fatal(err)
	}
	spec, opts, err := FromConfig(conf)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Satellites != 3 || spec.MinSatellites != 1 || spec.MaxSatellites != 4 {
		t.Fatalf("spec counts: %+v", spec)
	}
	if len(spec.Cordoned) != 1 || spec.Cordoned[0] != 2 {
		t.Fatalf("cordon mapping: %v (sat2 is the 2nd satellite host = node ID 2)", spec.Cordoned)
	}
	if opts.Interval != 45*time.Second || opts.DrainDeadline != 2*time.Minute {
		t.Fatalf("opts: %+v", opts)
	}

	conf.CordonedSatellites = []string{"nosuch"}
	if _, _, err := FromConfig(conf); err == nil {
		t.Fatal("unknown cordoned host must error")
	}
}

// TestDrainSpansEnd drives a traced reconciler through every way a drain
// can end — clean, forced by the deadline, refused because another drain
// holds the satellite — and checks that every reconcile.round and
// reconcile.drain span has ended after teardown. No soak seed forces a
// drain, so this is the forced path's only coverage.
func TestDrainSpansEnd(t *testing.T) {
	e, _, m := harness(t, 5, 4)
	e.EnableTracing()
	rec := New(m, Spec{Satellites: 4}, Config{Interval: 20 * time.Second, DrainDeadline: 10 * time.Second})
	rec.Start()

	// Clean: scaling 4 → 3 drains idle satellite 4.
	rec.SetSpec(Spec{Satellites: 3})
	e.RunUntil(e.Now() + time.Minute)

	// Forced: satellite 3 holds a task that never resolves, so scaling
	// 3 → 2 drains it into the deadline.
	m.Pool.Apply(m.Pool.Get(3), satellite.EvBTAssigned)
	rec.SetSpec(Spec{Satellites: 2})
	e.RunUntil(e.Now() + time.Minute)

	// Refused: an operator drain already pends on busy satellite 2 when
	// the spec cordons it, so every reconciler drain of it is refused.
	m.Pool.Apply(m.Pool.Get(2), satellite.EvBTAssigned)
	if err := m.Pool.Drain(2, time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	rec.SetSpec(Spec{Satellites: 1, Cordoned: []cluster.NodeID{2}})
	e.RunUntil(e.Now() + time.Minute)

	rec.Stop()
	m.Stop()
	e.Run()

	if st := rec.Status(); st.Drains < 3 || st.DrainsForced != 1 {
		t.Fatalf("Drains = %d, DrainsForced = %d; want ≥ 3 drains, exactly 1 forced", st.Drains, st.DrainsForced)
	}
	ends := map[string]int{}
	rounds := 0
	for id, sp := range e.Tracer().Spans() {
		if sp.Name != "reconcile.round" && sp.Name != "reconcile.drain" {
			continue
		}
		if !sp.Ended {
			t.Errorf("span %s#%d opened at %v never ended", sp.Name, id+1, sp.Start)
		}
		if sp.Name == "reconcile.round" {
			rounds++
			continue
		}
		for _, a := range sp.Attrs {
			switch a.Key {
			case "clean":
				ends["clean="+a.Value]++
			case "error":
				ends["refused"]++
			}
		}
	}
	if rounds == 0 || ends["clean=true"] == 0 || ends["clean=false"] != 1 || ends["refused"] == 0 {
		t.Fatalf("rounds=%d drain ends=%v; want rounds plus clean, one forced and refused drains", rounds, ends)
	}
}
