package satellite

import (
	"errors"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/simnet"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{Unknown: "UNKNOWN", Running: "RUNNING", Busy: "BUSY", Fault: "FAULT", Down: "DOWN"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%v.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if Event(99).String() == "" || State(99).String() == "" {
		t.Error("unknown values must still print")
	}
}

func TestHappyPathLifecycle(t *testing.T) {
	s := &Satellite{ID: 1}
	steps := []struct {
		ev   Event
		want State
	}{
		{EvHBSuccess, Running},
		{EvBTAssigned, Busy},
		{EvBTSuccess, Running},
		{EvBTAssigned, Busy},
		{EvBTAssigned, Busy}, // second concurrent task
		{EvBTSuccess, Busy},  // one still in flight
		{EvBTSuccess, Running},
	}
	for i, st := range steps {
		got, err := s.Transition(st.ev, 0)
		if err != nil {
			t.Fatalf("step %d (%v): %v", i, st.ev, err)
		}
		if got != st.want {
			t.Fatalf("step %d (%v): state = %v, want %v", i, st.ev, got, st.want)
		}
	}
	if s.TasksReceived != 3 {
		t.Errorf("TasksReceived = %d, want 3", s.TasksReceived)
	}
}

func TestBTFailureFaults(t *testing.T) {
	s := &Satellite{ID: 1}
	s.Transition(EvHBSuccess, 0)
	s.Transition(EvBTAssigned, 0)
	st, err := s.Transition(EvBTFailure, 5*time.Minute)
	if err != nil || st != Fault {
		t.Fatalf("BT-failure: state=%v err=%v", st, err)
	}
	if s.FaultSince() != 5*time.Minute {
		t.Errorf("FaultSince = %v", s.FaultSince())
	}
	if s.TasksFailed != 1 {
		t.Errorf("TasksFailed = %d", s.TasksFailed)
	}
	// Recovery via heartbeat.
	st, _ = s.Transition(EvHBSuccess, 6*time.Minute)
	if st != Running {
		t.Errorf("HB-success from FAULT: %v", st)
	}
}

func TestHBFailureFromAnyLiveState(t *testing.T) {
	for _, setup := range [][]Event{
		{},                          // Unknown
		{EvHBSuccess},               // Running
		{EvHBSuccess, EvBTAssigned}, // Busy
	} {
		s := &Satellite{}
		for _, ev := range setup {
			s.Transition(ev, 0)
		}
		st, err := s.Transition(EvHBFailure, 0)
		if err != nil || st != Fault {
			t.Errorf("HB-failure from %v state: %v, %v", setup, st, err)
		}
	}
}

func TestShutdownFromEverywhere(t *testing.T) {
	for _, st0 := range []State{Unknown, Running, Busy, Fault} {
		s := &Satellite{state: st0}
		st, err := s.Transition(EvShutdown, 0)
		if err != nil || st != Down {
			t.Errorf("SHUTDOWN from %v: %v, %v", st0, st, err)
		}
	}
	// Shutdown of a DOWN node is idempotent, not an error.
	s := &Satellite{state: Down}
	if _, err := s.Transition(EvShutdown, 0); err != nil {
		t.Error("shutdown of DOWN node errored")
	}
}

func TestTimeoutOnlyFromFault(t *testing.T) {
	s := &Satellite{state: Fault}
	st, err := s.Transition(EvTimeout, 0)
	if err != nil || st != Down {
		t.Fatalf("TIMEOUT from FAULT: %v, %v", st, err)
	}
	s2 := &Satellite{state: Running}
	if _, err := s2.Transition(EvTimeout, 0); err == nil {
		t.Error("TIMEOUT from RUNNING must be invalid")
	}
	var inv *ErrInvalidTransition
	_, err = s2.Transition(EvTimeout, 0)
	if !errors.As(err, &inv) {
		t.Error("error is not ErrInvalidTransition")
	}
}

func TestDownRequiresReinstate(t *testing.T) {
	s := &Satellite{state: Down}
	if _, err := s.Transition(EvHBSuccess, 0); err == nil {
		t.Error("DOWN must not recover via heartbeat")
	}
	s.Reinstate()
	if s.State() != Unknown {
		t.Errorf("Reinstate -> %v, want UNKNOWN", s.State())
	}
}

func TestLateTaskOutcomeAfterFaultAbsorbed(t *testing.T) {
	s := &Satellite{}
	s.Transition(EvHBSuccess, 0)
	s.Transition(EvBTAssigned, 0)
	s.Transition(EvHBFailure, 0) // fault races the in-flight task
	if _, err := s.Transition(EvBTFailure, 0); err != nil {
		t.Errorf("late BT outcome after FAULT must be absorbed: %v", err)
	}
	if s.State() != Fault {
		t.Errorf("state = %v", s.State())
	}
}

func newPool(n int) (*simnet.Engine, *Pool) {
	e := simnet.NewEngine(9)
	ids := make([]cluster.NodeID, n)
	for i := range ids {
		ids[i] = cluster.NodeID(i + 1)
	}
	return e, NewPool(e, ids)
}

func TestPoolRoundRobinSkipsNonRunning(t *testing.T) {
	e, p := newPool(4)
	_ = e
	for _, s := range p.All() {
		p.Apply(s, EvHBSuccess)
	}
	// Fault satellite 2.
	p.Apply(p.Get(2), EvHBFailure)
	var order []cluster.NodeID
	for i := 0; i < 6; i++ {
		s := p.NextRunning()
		order = append(order, s.ID)
	}
	want := []cluster.NodeID{1, 3, 4, 1, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", order, want)
		}
	}
}

func TestPoolNextRunningNilWhenEmpty(t *testing.T) {
	_, p := newPool(2)
	if p.NextRunning() != nil {
		t.Error("UNKNOWN satellites must not be selected")
	}
}

func TestSelectRunningDistinct(t *testing.T) {
	_, p := newPool(3)
	for _, s := range p.All() {
		p.Apply(s, EvHBSuccess)
	}
	sel := p.SelectRunning(5)
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3 (pool size)", len(sel))
	}
	seen := map[cluster.NodeID]bool{}
	for _, s := range sel {
		if seen[s.ID] {
			t.Fatal("duplicate satellite selected")
		}
		seen[s.ID] = true
	}
}

func TestPoolFaultTimeoutDemotesToDown(t *testing.T) {
	e, p := newPool(1)
	s := p.Get(1)
	p.Apply(s, EvHBSuccess)
	p.Apply(s, EvHBFailure)
	e.RunUntil(21 * time.Minute)
	if s.State() != Down {
		t.Fatalf("state after 21 min in FAULT = %v, want DOWN", s.State())
	}
}

func TestPoolFaultTimeoutCancelledByRecovery(t *testing.T) {
	e, p := newPool(1)
	s := p.Get(1)
	p.Apply(s, EvHBSuccess)
	p.Apply(s, EvHBFailure)
	e.Schedule(5*time.Minute, func() { p.Apply(s, EvHBSuccess) })
	e.RunUntil(30 * time.Minute)
	if s.State() != Running {
		t.Fatalf("recovered satellite demoted anyway: %v", s.State())
	}
}

func TestPoolFaultTimeoutTracksLatestFault(t *testing.T) {
	// Recover and re-fault: the first timeout must not fire against the
	// second fault episode prematurely... but the second episode's own
	// timer must.
	e, p := newPool(1)
	s := p.Get(1)
	p.Apply(s, EvHBSuccess)
	p.Apply(s, EvHBFailure) // fault #1 at t=0
	e.Schedule(10*time.Minute, func() { p.Apply(s, EvHBSuccess) })
	e.Schedule(15*time.Minute, func() { p.Apply(s, EvHBFailure) }) // fault #2
	e.RunUntil(25 * time.Minute)                                   // fault #1 timer fires at 20m; episode differs
	if s.State() != Fault {
		t.Fatalf("state at 25m = %v, want FAULT (episode 2 only 10m old)", s.State())
	}
	e.RunUntil(36 * time.Minute) // episode-2 timer fires at 35m
	if s.State() != Down {
		t.Fatalf("state at 36m = %v, want DOWN", s.State())
	}
}

func TestPoolCounts(t *testing.T) {
	_, p := newPool(5)
	for i, s := range p.All() {
		if i < 3 {
			p.Apply(s, EvHBSuccess)
		}
	}
	if h := p.Health(); h != (Health{Running: 3, Unknown: 2}) {
		t.Errorf("health = %+v", h)
	}
}
