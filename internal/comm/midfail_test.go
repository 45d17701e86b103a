package comm

import (
	"sort"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/simnet"
)

// Mid-broadcast failure coverage: nodes die while the payload is in
// flight, so the re-routing paths (ring skip, tree adoption, star/
// shared-mem direct timeouts, FP-Tree adoption) run against targets whose
// liveness changed after the broadcast started. The Result partition
// invariant must hold regardless of when the failure lands.

// assertPartition checks that Resolved ∪ Unreachable is an exact
// partition of targets and the counters agree with the identities.
func assertPartition(t *testing.T, name string, targets []cluster.NodeID, res Result) {
	t.Helper()
	if res.Delivered+len(res.Unreachable) != len(targets) {
		t.Errorf("%s: delivered %d + unreachable %d != targets %d",
			name, res.Delivered, len(res.Unreachable), len(targets))
	}
	if res.Delivered != len(res.Resolved) {
		t.Errorf("%s: Delivered %d != len(Resolved) %d", name, res.Delivered, len(res.Resolved))
	}
	all := append(append([]cluster.NodeID(nil), res.Resolved...), res.Unreachable...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	want := append([]cluster.NodeID(nil), targets...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(all) != len(want) {
		return // counter mismatch already reported
	}
	for i := range all {
		if all[i] != want[i] {
			t.Errorf("%s: resolution set is not an exact partition (rank %d: got %d want %d)",
				name, i, all[i], want[i])
			return
		}
	}
}

// healthyElapsed measures a structure's failure-free broadcast time so
// mid-broadcast failure times can be placed as fractions of it.
func healthyElapsed(computes int, s Structure) time.Duration {
	e := simnet.NewEngine(1)
	c := cluster.New(e, cluster.Config{Computes: computes, Satellites: 1})
	b := NewBroadcaster(c)
	var res Result
	s.Broadcast(b, c.Satellites()[0], c.Computes(), 512, func(r Result) { res = r })
	e.Run()
	return res.Elapsed
}

func TestMidBroadcastFailureAllStructures(t *testing.T) {
	const computes = 100
	failIdx := []int{3, 17, 42, 77, 95}
	for _, s := range structures() {
		span := healthyElapsed(computes, s)
		if span <= 0 {
			t.Fatalf("%s: no healthy elapsed", s.Name())
		}
		sawUnreachable := false
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			failAt := time.Duration(float64(span) * frac)
			e := simnet.NewEngine(2)
			c := cluster.New(e, cluster.Config{Computes: computes, Satellites: 1})
			targets := c.Computes()
			for _, i := range failIdx {
				c.ScheduleFailure(targets[i], failAt, 0) // never recovers
			}
			b := NewBroadcaster(c)
			b.RecordResolved = true
			var res Result
			got := false
			s.Broadcast(b, c.Satellites()[0], targets, 512, func(r Result) { res = r; got = true })
			e.Run()
			if !got {
				t.Fatalf("%s: broadcast stalled with failures at %v (%.0f%% of %v)",
					s.Name(), failAt, frac*100, span)
			}
			assertPartition(t, s.Name(), targets, res)
			// Only the scheduled victims may be unreachable.
			victims := map[cluster.NodeID]bool{}
			for _, i := range failIdx {
				victims[targets[i]] = true
			}
			for _, id := range res.Unreachable {
				if !victims[id] {
					t.Errorf("%s: healthy node %d reported unreachable", s.Name(), id)
				}
			}
			if len(res.Unreachable) > 0 {
				sawUnreachable = true
			}
			if b.OutstandingSends() != 0 {
				t.Errorf("%s: %d sends outstanding after drain", s.Name(), b.OutstandingSends())
			}
		}
		if !sawUnreachable {
			t.Errorf("%s: no failure landed before delivery in the whole sweep; mid-broadcast path not exercised", s.Name())
		}
	}
}

// TestDeliveryIdempotentUnderDuplication floods the network with
// duplicates and checks Delivered never double-counts a target.
func TestDeliveryIdempotentUnderDuplication(t *testing.T) {
	for _, s := range structures() {
		e := simnet.NewEngine(4)
		c := cluster.New(e, cluster.Config{
			Computes: 80, Satellites: 1,
			Net: cluster.NetConfig{DupProb: 0.5},
		})
		b := NewBroadcaster(c)
		b.RecordResolved = true
		var res Result
		got := false
		s.Broadcast(b, c.Satellites()[0], c.Computes(), 512, func(r Result) { res = r; got = true })
		e.Run()
		if !got {
			t.Fatalf("%s: stalled under duplication", s.Name())
		}
		if res.Delivered != 80 {
			t.Errorf("%s: delivered %d/80 under 50%% duplication", s.Name(), res.Delivered)
		}
		assertPartition(t, s.Name(), c.Computes(), res)
	}
}

// TestLossRetriesStillPartition cranks message loss with a backoff retry
// policy: whatever the loss pattern, the partition invariant must hold
// and every send slot must be returned.
func TestLossRetriesStillPartition(t *testing.T) {
	for _, s := range structures() {
		e := simnet.NewEngine(5)
		c := cluster.New(e, cluster.Config{
			Computes: 80, Satellites: 1,
			Net: cluster.NetConfig{LossProb: 0.2},
		})
		b := NewBroadcaster(c)
		b.RecordResolved = true
		b.Retry = RetryPolicy{MaxAttempts: 5, Backoff: 20 * time.Millisecond, JitterFrac: 0.5}
		var res Result
		got := false
		s.Broadcast(b, c.Satellites()[0], c.Computes(), 512, func(r Result) { res = r; got = true })
		e.Run()
		if !got {
			t.Fatalf("%s: stalled under loss", s.Name())
		}
		assertPartition(t, s.Name(), c.Computes(), res)
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered under 20%% loss with retries", s.Name())
		}
		if b.OutstandingSends() != 0 {
			t.Errorf("%s: %d slots leaked", s.Name(), b.OutstandingSends())
		}
	}
}

// TestRetryPolicyBackoffAndDeadline pins the policy arithmetic: the
// backoff sequence grows exponentially to the cap, and the deadline stops
// a chain early.
func TestRetryPolicyBackoffAndDeadline(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 6, Backoff: 100 * time.Millisecond, MaxBackoff: 500 * time.Millisecond}
	wants := []time.Duration{
		100 * time.Millisecond, // before attempt 2
		200 * time.Millisecond, // 3
		400 * time.Millisecond, // 4
		500 * time.Millisecond, // 5 (capped)
		500 * time.Millisecond, // 6 (capped)
	}
	for i, want := range wants {
		if got := p.backoff(i + 2); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i+2, got, want)
		}
	}

	// A dead target with a generous attempt budget but a tight deadline:
	// the chain must give up at the deadline, not run out the attempts.
	e := simnet.NewEngine(6)
	c := cluster.New(e, cluster.Config{Computes: 4, Satellites: 1})
	c.Fail(c.Computes()[0])
	b := NewBroadcaster(c)
	b.Retry = RetryPolicy{MaxAttempts: 100, Backoff: time.Second, Deadline: 3 * time.Second}
	okSeen := false
	var resolvedAt time.Duration
	b.Send(c.Satellites()[0], c.Computes()[0], 64, func(ok bool) {
		okSeen = true
		if ok {
			t.Error("delivery to a dead node reported ok")
		}
		resolvedAt = e.Now()
	})
	e.Run()
	if !okSeen {
		t.Fatal("send never resolved")
	}
	if resolvedAt > 10*time.Second {
		t.Errorf("deadline did not bound the chain: resolved at %v", resolvedAt)
	}

	// Same-seed reruns of a lossy retry broadcast are bit-identical in
	// their retry counts (deterministic jitter).
	run := func() int {
		e := simnet.NewEngine(7)
		c := cluster.New(e, cluster.Config{
			Computes: 60, Satellites: 1,
			Net: cluster.NetConfig{LossProb: 0.3},
		})
		b := NewBroadcaster(c)
		b.Retry = RetryPolicy{MaxAttempts: 6, Backoff: 10 * time.Millisecond, JitterFrac: 1.0}
		var res Result
		Star{}.Broadcast(b, c.Satellites()[0], c.Computes(), 256, func(r Result) { res = r })
		e.Run()
		return res.Retries
	}
	if a, b2 := run(), run(); a != b2 {
		t.Errorf("retry counts differ across same-seed runs: %d vs %d", a, b2)
	}
}

// TestRetryDeadlineExpiresMidBackoff pins the deadline-vs-backoff
// interaction: when the Deadline elapses while the chain is parked in a
// backoff wait, the wake-up must resolve the send exactly once as failed —
// no attempt may launch past the deadline, and no late duplicate
// resolution may follow.
func TestRetryDeadlineExpiresMidBackoff(t *testing.T) {
	e := simnet.NewEngine(8)
	c := cluster.New(e, cluster.Config{Computes: 4, Satellites: 1})
	dead := c.Computes()[0]
	c.Fail(dead)
	b := NewBroadcaster(c)
	// First attempt fails around the connect timeout (~1s); the 10s
	// backoff then straddles the 3s deadline, so the deadline expires
	// mid-backoff with 98 attempts still in budget.
	b.Retry = RetryPolicy{MaxAttempts: 100, Backoff: 10 * time.Second, Deadline: 3 * time.Second}
	var resolutions []bool
	var resolvedAt time.Duration
	b.Send(c.Satellites()[0], dead, 64, func(ok bool) {
		resolutions = append(resolutions, ok)
		resolvedAt = e.Now()
	})
	e.Run()
	if len(resolutions) != 1 || resolutions[0] {
		t.Fatalf("resolutions = %v, want exactly one failed resolution", resolutions)
	}
	// Exactly one attempt went on the wire: the backoff wake-up saw the
	// expired deadline and settled instead of retrying.
	if got := e.Metrics().Counter("comm.messages").Value(); got != 1 {
		t.Errorf("comm.messages = %d, want 1 (no attempt after the deadline)", got)
	}
	// The chain resolved at the backoff wake-up, bounded well below a
	// second attempt's own timeout.
	if resolvedAt > 12*time.Second {
		t.Errorf("resolved at %v; expected at the first backoff wake-up", resolvedAt)
	}
	if b.OutstandingSends() != 0 {
		t.Errorf("%d sends outstanding after drain", b.OutstandingSends())
	}
}
