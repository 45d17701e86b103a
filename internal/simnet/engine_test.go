package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
}

func TestTieBreakBySeq(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5*time.Second, func() {
		fired := false
		e.After(-time.Second, func() { fired = true })
		e.Step()
		if !fired {
			t.Error("negative After never fired")
		}
		if e.Now() != 5*time.Second {
			t.Errorf("negative After moved time to %v", e.Now())
		}
	})
	e.Run()
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(time.Second, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(2*time.Second, func() { fired = true })
	e.Schedule(time.Second, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(5*time.Second, func() { fired = append(fired, 5) })
	e.RunUntil(3 * time.Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("second RunUntil did not fire pending event: %v", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(3*time.Second, func() { fired = true })
	e.RunUntil(3 * time.Second)
	if !fired {
		t.Error("event exactly at deadline did not fire")
	}
}

func TestRunUntilDone(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	for _, s := range []int{1, 2, 3} {
		e.Schedule(time.Duration(s)*time.Second, func() { fired = append(fired, s) })
	}
	if !e.RunUntilDone(time.Hour, func() bool { return true }) || len(fired) != 0 {
		t.Fatalf("done already true: fired %v, want nothing run", fired)
	}
	if !e.RunUntilDone(time.Hour, func() bool { return len(fired) == 2 }) {
		t.Fatal("RunUntilDone = false, want true once the 2s event ran")
	}
	if len(fired) != 2 || e.Now() != 2*time.Second || e.Pending() != 1 {
		t.Fatalf("fired %v, Now %v, Pending %d; want [1 2], 2s, 1", fired, e.Now(), e.Pending())
	}
	if e.RunUntilDone(2500*time.Millisecond, func() bool { return false }) {
		t.Fatal("RunUntilDone = true at the deadline, want false")
	}
	if e.Now() != 2*time.Second || e.Pending() != 1 {
		t.Errorf("after the deadline: Now %v, Pending %d; want the clock left at 2s and the 3s event pending", e.Now(), e.Pending())
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tk := e.Every(time.Second, func() {
		count++
		if count == 5 {
			// Stop from within the callback.
		}
	})
	e.RunUntil(4500 * time.Millisecond)
	if count != 4 {
		t.Fatalf("ticks = %d, want 4", count)
	}
	tk.Stop()
	e.RunUntil(10 * time.Second)
	if count != 4 {
		t.Fatalf("ticker fired after Stop: %d", count)
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

// TestLiveTickers: Every adds one to the live count and only the first
// Stop of a ticker takes it off, wherever the Stop runs.
func TestLiveTickers(t *testing.T) {
	e := NewEngine(1)
	a := e.Every(time.Second, func() {})
	var b *Ticker
	b = e.Every(time.Second, func() { b.Stop() })
	if n := e.LiveTickers(); n != 2 {
		t.Fatalf("LiveTickers = %d after two Every, want 2", n)
	}
	e.RunUntil(3 * time.Second)
	if n := e.LiveTickers(); n != 1 {
		t.Fatalf("LiveTickers = %d after a self-stop, want 1", n)
	}
	a.Stop()
	a.Stop()
	b.Stop()
	if n := e.LiveTickers(); n != 0 {
		t.Fatalf("LiveTickers = %d after repeated Stops, want 0", n)
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	NewEngine(1).Every(0, func() {})
}

func TestRandDeterministic(t *testing.T) {
	a := NewEngine(42).Rand("net")
	b := NewEngine(42).Rand("net")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed,label) streams diverged")
		}
	}
	c := NewEngine(42).Rand("other")
	d := NewEngine(43).Rand("net")
	if c.Int63() == a.Int63() && d.Int63() == b.Int63() {
		t.Error("distinct labels/seeds produced identical streams")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed())
	}
}

// Property: running any batch of events executes them in nondecreasing time
// order regardless of insertion order.
func TestPropertyTimeOrdered(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var seen []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			e.Schedule(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil never advances past the deadline while events fire, and
// Now() equals the deadline afterwards.
func TestPropertyRunUntilDeadline(t *testing.T) {
	f := func(delays []uint16, deadlineMS uint16) bool {
		e := NewEngine(3)
		deadline := time.Duration(deadlineMS) * time.Millisecond
		ok := true
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				if e.Now() > deadline {
					ok = false
				}
			})
		}
		e.RunUntil(deadline)
		return ok && e.Now() == deadline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}

// Observe must see every executed event, in execution order, with
// nondecreasing times — and never see cancelled events.
func TestObserve(t *testing.T) {
	e := NewEngine(7)
	var seen []uint64
	var last time.Duration
	e.Observe(func(at time.Duration, seq uint64) {
		if at < last {
			t.Errorf("observer saw time go backwards: %v after %v", at, last)
		}
		last = at
		seen = append(seen, seq)
	})
	e.After(2*time.Millisecond, func() {})
	cancelled := e.After(time.Millisecond, func() {})
	cancelled.Cancel()
	e.After(3*time.Millisecond, func() {})
	e.Run()
	if len(seen) != 2 {
		t.Fatalf("observer saw %d events, want 2 (cancelled event must be invisible)", len(seen))
	}
	if uint64(len(seen)) != e.Processed() {
		t.Errorf("observer count %d != Processed %d", len(seen), e.Processed())
	}
	e.Observe(nil) // clearing must not panic on the next event
	e.After(time.Millisecond, func() {})
	e.Run()
}

// TestDigestFollowsTheExecutionStream: same-seed runs digest alike, and
// moving one event's time moves the digest.
func TestDigestFollowsTheExecutionStream(t *testing.T) {
	run := func(last time.Duration) uint64 {
		e := NewEngine(1)
		e.EnableDigest()
		for i := 1; i <= 8; i++ {
			e.After(time.Duration(i)*time.Millisecond, func() {})
		}
		e.After(last, func() {})
		e.Run()
		return e.Digest()
	}
	if a, b := run(time.Second), run(time.Second); a != b {
		t.Fatalf("same-seed digests differ: %#x vs %#x", a, b)
	}
	if a, b := run(time.Second), run(2*time.Second); a == b {
		t.Fatalf("digest %#x did not move with an event's time", a)
	}
}
