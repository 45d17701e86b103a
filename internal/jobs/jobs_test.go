package jobs

import (
	"errors"
	"math"
	"testing"
	"time"
)

func newReg() *Registry { return NewRegistry() }

func TestLifecycleHappyPath(t *testing.T) {
	r := newReg()
	j := r.Submit("cfd", "alice", "batch", 64, 1536, time.Hour, 0)
	if j.ID != 1 || j.State() != Pending {
		t.Fatalf("submit: %+v", j)
	}
	steps := []State{Configuring, Running, Completing, Completed}
	now := time.Duration(0)
	for _, s := range steps {
		now += time.Minute
		if err := r.Transition(j, s, now); err != nil {
			t.Fatalf("-> %v: %v", s, err)
		}
	}
	if !j.State().Terminal() {
		t.Error("job not terminal")
	}
	if j.StartAt != 2*time.Minute || j.EndAt != 4*time.Minute {
		t.Errorf("timestamps: start=%v end=%v", j.StartAt, j.EndAt)
	}
	if h := r.History(); len(h) != 1 || h[0] != j {
		t.Error("history missing the job")
	}
	if j.State() != Completed {
		t.Errorf("state = %v, want COMPLETED", j.State())
	}
}

func TestIllegalTransitions(t *testing.T) {
	r := newReg()
	j := r.Submit("x", "u", "p", 1, 24, time.Hour, 0)
	var bad *ErrBadTransition
	if err := r.Transition(j, Running, 0); !errors.As(err, &bad) {
		t.Fatalf("Pending->Running must fail, got %v", err)
	}
	if bad.From != Pending || bad.To != Running {
		t.Errorf("error detail: %+v", bad)
	}
	// Terminal states are dead ends.
	r.Transition(j, Cancelled, 0)
	if err := r.Transition(j, Configuring, 0); err == nil {
		t.Error("transition out of CANCELLED allowed")
	}
}

func TestRunningFailureModes(t *testing.T) {
	for _, final := range []State{Failed, Timeout, Cancelled} {
		r := newReg()
		j := r.Submit("x", "u", "p", 2, 48, time.Hour, 0)
		r.Transition(j, Configuring, time.Minute)
		r.Transition(j, Running, 2*time.Minute)
		if err := r.Transition(j, final, time.Hour); err != nil {
			t.Fatalf("Running -> %v: %v", final, err)
		}
		// Fair-share charged for the held time.
		if u := r.fs.Usage("u", time.Hour); u <= 0 {
			t.Errorf("%v: no usage charged", final)
		}
	}
}

// TestKilledAtLimitEndsTimeout: a job killed at its walltime limit drains
// through COMPLETING like any other and ends TIMEOUT.
func TestKilledAtLimitEndsTimeout(t *testing.T) {
	r := newReg()
	j := r.Submit("x", "u", "p", 2, 48, time.Hour, 0)
	for i, s := range []State{Configuring, Running, Completing, Timeout} {
		if err := r.Transition(j, s, time.Duration(i)*time.Minute); err != nil {
			t.Fatalf("-> %v: %v", s, err)
		}
	}
	if h := r.History(); j.State() != Timeout || len(h) != 1 || h[0] != j {
		t.Errorf("state = %v, history = %d", j.State(), len(h))
	}
}

func TestStateStringsAndTerminal(t *testing.T) {
	for s := Pending; s <= Cancelled; s++ {
		if s.String() == "" {
			t.Error("empty state name")
		}
	}
	if Pending.Terminal() || Running.Terminal() {
		t.Error("live states marked terminal")
	}
	if !Completed.Terminal() || !Timeout.Terminal() {
		t.Error("terminal states not marked")
	}
	if State(99).String() == "" {
		t.Error("unknown state must print")
	}
}

func TestHistoryEviction(t *testing.T) {
	r := newReg()
	for i := 0; i < historyCap+3; i++ {
		j := r.Submit("x", "u", "p", 1, 24, time.Hour, 0)
		r.Transition(j, Cancelled, time.Minute)
	}
	if len(r.History()) != historyCap {
		t.Fatalf("history = %d, want cap %d", len(r.History()), historyCap)
	}
	if r.History()[0].ID != 4 {
		t.Errorf("oldest retained = %d, want 4", r.History()[0].ID)
	}
	// Evicted jobs are gone, retained are findable.
	if r.Get(3) != nil {
		t.Error("evicted job still accessible")
	}
	if r.Get(historyCap) == nil {
		t.Error("retained job lost")
	}
}

func TestPendingPriorityOrder(t *testing.T) {
	r := newReg()
	old := r.Submit("old", "alice", "p", 10, 240, time.Hour, 0)
	big := r.Submit("big", "bob", "p", 20000, 480000, time.Hour, 47*time.Hour)
	fresh := r.Submit("fresh", "alice", "p", 10, 240, time.Hour, 48*time.Hour)

	got := r.Pending(48 * time.Hour)
	if len(got) != 3 {
		t.Fatalf("pending = %d", len(got))
	}
	// The old job has max age factor; the big job has the size factor;
	// the fresh small job trails.
	if got[len(got)-1].ID != fresh.ID {
		t.Errorf("fresh small job should rank last: %v", ids(got))
	}
	if old.Priority() == 0 || big.Priority() == 0 {
		t.Error("priorities not computed")
	}
}

func ids(js []*Job) []ID {
	out := make([]ID, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

func TestFairshareDepressesHeavyUser(t *testing.T) {
	r := newReg()
	// Heavy user burns 4000 node-hours.
	h := r.Submit("burn", "heavy", "p", 4000, 96000, 2*time.Hour, 0)
	r.Transition(h, Configuring, 0)
	r.Transition(h, Running, 0)
	r.Transition(h, Completing, time.Hour)
	r.Transition(h, Completed, time.Hour)

	a := r.Submit("a", "heavy", "p", 10, 240, time.Hour, time.Hour)
	b := r.Submit("b", "light", "p", 10, 240, time.Hour, time.Hour)
	got := r.Pending(time.Hour + time.Minute)
	if got[0].ID != b.ID || got[1].ID != a.ID {
		t.Errorf("fair share did not prefer the light user: %v", ids(got))
	}
}

func TestFairshareDecay(t *testing.T) {
	fs := NewFairshare(24 * time.Hour)
	fs.Charge("u", 1000, 0)
	u0 := fs.Usage("u", 0)
	u1 := fs.Usage("u", 24*time.Hour)
	if math.Abs(u1-u0/2) > 1e-6 {
		t.Errorf("after one half-life usage = %v, want %v", u1, u0/2)
	}
	// Factor is 1 for an unknown user and decreases with usage.
	if fs.Factor("new", 0) != 1 {
		t.Error("fresh user factor != 1")
	}
	fs.Charge("u", 1e12, 25*time.Hour)
	if f := fs.Factor("u", 25*time.Hour); f > 0.01 {
		t.Errorf("huge usage factor = %v", f)
	}
}

func TestAgeFactorSaturates(t *testing.T) {
	fs := NewFairshare(usageHalfLife)
	j := &Job{Nodes: 1, SubmitAt: 0}
	p1 := score(j, fs, maxAge)
	p2 := score(j, fs, 10*maxAge)
	if p1 != p2 {
		t.Errorf("age factor did not saturate: %v vs %v", p1, p2)
	}
}
