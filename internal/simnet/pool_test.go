package simnet

// Regression tests for the pooled-event kernel: heap compaction, live
// Pending accounting, event reuse, and the memoized RNG streams. The
// bit-for-bit ordering contract itself is guarded by the root package's
// TestFullStackDeterminism digest.

import (
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"
	"time"
)

// TestPendingCountsLiveOnly pins the post-compaction Pending contract:
// cancelled events awaiting collection are invisible.
func TestPendingCountsLiveOnly(t *testing.T) {
	e := NewEngine(1)
	var evs []Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(time.Duration(i+1)*time.Second, func() {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for _, ev := range evs[:4] {
		ev.Cancel()
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", e.Pending())
	}
	evs[0].Cancel() // double cancel must not double count
	if e.Pending() != 6 {
		t.Fatalf("Pending after double cancel = %d, want 6", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
	if e.Processed() != 6 {
		t.Fatalf("Processed = %d, want 6", e.Processed())
	}
}

// TestCompaction drives the heap into the majority-cancelled regime and
// checks that compaction reclaims slots without perturbing what fires.
func TestCompaction(t *testing.T) {
	e := NewEngine(2)
	const n = 4 * compactMin
	var evs []Event
	for i := 0; i < n; i++ {
		i := i
		evs = append(evs, e.Schedule(time.Duration(i+1)*time.Millisecond, func() { _ = i }))
	}
	// Cancel every event but the last two; compaction must trigger on the
	// way (cancelled fraction crosses 1/2) and shrink the heap.
	for _, ev := range evs[:n-2] {
		ev.Cancel()
	}
	if len(e.events) >= n/2 {
		t.Fatalf("heap not compacted: %d slots for 2 live events", len(e.events))
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	var fired []time.Duration
	e.Observe(func(at time.Duration, seq uint64) { fired = append(fired, at) })
	e.Run()
	want := []time.Duration{time.Duration(n-1) * time.Millisecond, time.Duration(n) * time.Millisecond}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestCompactionPreservesOrder compares a cancel-heavy run against the
// same schedule with the doomed events never inserted: the survivors must
// fire in an identical order either way.
func TestCompactionPreservesOrder(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		run := func(withDoomed bool) string {
			e := NewEngine(9)
			h := fnv.New64a()
			e.Observe(func(at time.Duration, seq uint64) { fmt.Fprintf(h, "%d;", int64(at)) })
			var doomed []Event
			for i, d := range delays {
				at := time.Duration(d) * time.Millisecond
				cancel := i < len(cancelMask) && cancelMask[i]
				if cancel && !withDoomed {
					// Keep seq numbering aligned with the other run's
					// survivors irrelevant: digest uses times only.
					continue
				}
				ev := e.Schedule(at, func() {})
				if cancel {
					doomed = append(doomed, ev)
				}
			}
			for _, ev := range doomed {
				ev.Cancel()
			}
			e.Run()
			return fmt.Sprintf("%x", h.Sum64())
		}
		return run(true) == run(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCompactAllCancelled drives compaction into the zero-survivor case:
// 63 cancels stay below compactMin, and cancelling a 64th event tips
// canceled*2 > len with no live entries left. The heapify loop must not
// touch the now-empty slice, and the engine must keep working after.
func TestCompactAllCancelled(t *testing.T) {
	e := NewEngine(11)
	var evs []Event
	for i := 0; i < compactMin-1; i++ {
		evs = append(evs, e.Schedule(time.Duration(i+1)*time.Second, func() {}))
	}
	for _, ev := range evs {
		ev.Cancel()
	}
	e.Schedule(time.Duration(compactMin)*time.Second, func() {}).Cancel()
	if len(e.events) != 0 {
		t.Fatalf("heap holds %d entries after compacting an all-cancelled heap, want 0", len(e.events))
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	fired := false
	e.Schedule(time.Minute, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("engine unusable after empty-heap compaction")
	}
}

// TestStaleHandleIsInert pins the generation contract: once an event has
// fired and its pooled object is reused, the old handle's Cancel must not
// touch the new event and Canceled must not report its state.
func TestStaleHandleIsInert(t *testing.T) {
	e := NewEngine(12)
	a := e.After(time.Second, func() {})
	e.Run()
	fired := false
	b := e.After(time.Second, func() { fired = true })
	if b.ev != a.ev {
		t.Fatal("test setup: pool did not hand the fired event's object to the next Schedule")
	}
	a.Cancel() // stale: a's event already fired and was recycled
	if a.Canceled() {
		t.Error("stale handle reports the reused event's state")
	}
	e.Run()
	if !fired {
		t.Error("stale Cancel cancelled an unrelated reused event")
	}
}

// TestCanceledSurvivesCollection: a cancelled event keeps reporting
// Canceled()==true after the heap collects its object into the pool, and
// stops (reports false) only once the object is reused for a new event.
func TestCanceledSurvivesCollection(t *testing.T) {
	e := NewEngine(13)
	ev := e.Schedule(time.Second, func() {})
	ev.Cancel()
	e.Run() // pops and collects the cancelled event into the pool
	if !ev.Canceled() {
		t.Error("Canceled lost the cancellation when the object was collected")
	}
	reused := e.After(time.Second, func() {})
	if reused.ev != ev.ev {
		t.Fatal("test setup: pool did not hand the cancelled event's object to the next Schedule")
	}
	if ev.Canceled() {
		t.Error("Canceled reports the state of an unrelated reused event")
	}
}

// TestEventReuse checks the free list actually recycles: a long-running
// schedule-fire chain must not grow the pool beyond one block.
func TestEventReuse(t *testing.T) {
	e := NewEngine(3)
	n := 0
	var loop func()
	loop = func() {
		n++
		if n < 10*eventBlock {
			e.After(time.Millisecond, loop)
		}
	}
	e.After(time.Millisecond, loop)
	e.Run()
	if n != 10*eventBlock {
		t.Fatalf("chain ran %d times, want %d", n, 10*eventBlock)
	}
	if got := len(e.free); got > eventBlock {
		t.Errorf("free list grew to %d events; reuse is broken", got)
	}
}

// TestTickerStopTwice pins the pooled-kernel hazard that motivated
// generation-checked handles: stopping a ticker twice (or stopping it
// after its event fired and the slot was reused) must never cancel an
// innocent event.
func TestTickerStopTwice(t *testing.T) {
	e := NewEngine(4)
	ticks := 0
	tk := e.Every(time.Second, func() { ticks++ })
	e.RunUntil(2500 * time.Millisecond)
	tk.Stop()
	// Schedule an unrelated event that will reuse the pooled slot, then
	// stop again: the second Stop must be inert.
	fired := false
	e.After(time.Second, func() { fired = true })
	tk.Stop()
	e.Run()
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
	if !fired {
		t.Error("second Ticker.Stop cancelled an unrelated pooled event")
	}
}

// TestCancelInFlightIsNoop: cancelling the event currently executing must
// not corrupt the live-event accounting.
func TestCancelInFlightIsNoop(t *testing.T) {
	e := NewEngine(5)
	var self Event
	self = e.Schedule(time.Second, func() {
		self.Cancel() // already popped; must be a no-op
	})
	e.Schedule(2*time.Second, func() {})
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
	if e.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", e.Processed())
	}
}

// TestRunUntilSkipsCancelledRoot: a cancelled event at the heap root must
// not stall RunUntil's deadline peek, and a live event beyond the
// deadline must not fire just because a cancelled earlier one was popped.
func TestRunUntilSkipsCancelledRoot(t *testing.T) {
	e := NewEngine(6)
	doomed := e.Schedule(1*time.Second, func() {})
	fired := false
	e.Schedule(20*time.Second, func() { fired = true })
	doomed.Cancel()
	e.RunUntil(10 * time.Second)
	if fired {
		t.Error("RunUntil fired an event beyond the deadline after skipping a cancelled root")
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
	e.RunUntil(30 * time.Second)
	if !fired {
		t.Error("live event never fired")
	}
}

// TestDeriveSeedMatchesFNV pins the label-hash derivation to the exact
// bytes the original fmt.Fprintf-over-fnv implementation hashed, so the
// memoized fast path can never silently re-seed every stream in the repo.
func TestDeriveSeedMatchesFNV(t *testing.T) {
	cases := []struct {
		seed  int64
		label string
	}{
		{0, ""}, {42, "net"}, {-7, "faults/silent"}, {1 << 62, "x/y/z"},
		{-1 << 62, "experiment/jobs"}, {9223372036854775807, "a"},
	}
	for _, c := range cases {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", c.seed, c.label)
		want := int64(h.Sum64())
		if got := deriveSeed(c.seed, c.label); got != want {
			t.Errorf("deriveSeed(%d, %q) = %d, want %d", c.seed, c.label, got, want)
		}
	}
}

// TestRandMemoized pins the stream-per-label contract: same label, same
// engine ⇒ same stream object continuing where it left off.
func TestRandMemoized(t *testing.T) {
	e := NewEngine(42)
	a := e.Rand("net")
	b := e.Rand("net")
	if a != b {
		t.Fatal("Rand did not memoize the stream for a repeated label")
	}
	fresh := NewEngine(42).Rand("net")
	x := fresh.Int63()
	if got := a.Int63(); got != x {
		t.Fatalf("first draw differs from an identically-derived stream: %d vs %d", got, x)
	}
	if e.Rand("net").Int63() == x {
		t.Error("repeated label restarted the stream instead of continuing it")
	}
}
