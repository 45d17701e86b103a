package simnet

// The lane oracle: a lane is only a faster place to keep a fixed-delay
// event, so any schedule run with some events on lanes must execute
// exactly as the same schedule run through AfterTo alone.

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// laneDelays are the oracle's lane delays: a zero delay (the event lands
// at now, behind everything already due), and delays on the heap delays'
// 50µs grid so lane events tie heap events on time.
var laneDelays = [...]time.Duration{0, 150 * time.Microsecond, time.Millisecond}

// laneProgram is a random self-scheduling workload. Every fired event
// draws what to do next: schedule on a lane or on the heap, cancel an old
// handle (live, fired or stale). lanes is nil in the reference run, which
// schedules every lane event with AfterTo at the lane's delay instead.
type laneProgram struct {
	e       *Engine
	rng     *rand.Rand
	lanes   []*Lane
	handles []Event
	budget  int
}

func (p *laneProgram) HandleEvent(int32) {
	switch p.rng.Intn(5) {
	case 0:
		p.schedule()
		p.schedule()
	case 1:
		p.cancel()
		p.schedule()
	case 2:
		p.schedule()
		p.cancel()
	default:
		p.schedule()
	}
}

func (p *laneProgram) schedule() {
	if p.budget == 0 {
		return
	}
	p.budget--
	var ev Event
	if i := p.rng.Intn(len(laneDelays) + 2); i < len(laneDelays) {
		if p.lanes != nil {
			ev = p.lanes[i].After(p, 0)
		} else {
			ev = p.e.AfterTo(laneDelays[i], p, 0)
		}
	} else {
		ev = p.e.AfterTo(time.Duration(p.rng.Intn(30))*50*time.Microsecond, p, 0)
	}
	p.handles = append(p.handles, ev)
}

func (p *laneProgram) cancel() {
	if len(p.handles) > 0 {
		p.handles[p.rng.Intn(len(p.handles))].Cancel()
	}
}

// laneTrace is everything an outside observer sees of one run: the
// (at, seq) stream, and after every outer step the clock, the counters
// and what RunUntilDone reported.
type laneTrace struct {
	stream []key
	marks  []int64
}

// runLaneProgram drives the program with a mix of RunUntil, RunUntilDone,
// Step, and schedules and cancels from outside any event, one per entry
// of stops, then drains it.
func runLaneProgram(seed int64, stops []uint8, lanes bool) laneTrace {
	e := NewEngine(seed)
	var tr laneTrace
	e.Observe(func(at time.Duration, seq uint64) { tr.stream = append(tr.stream, key{at, seq}) })
	p := &laneProgram{e: e, rng: rand.New(rand.NewSource(seed)), budget: 3000}
	if lanes {
		for _, d := range laneDelays {
			p.lanes = append(p.lanes, e.Lane(d))
		}
	}
	for i := 0; i < 8; i++ {
		p.schedule()
	}
	mark := func(vs ...int64) {
		tr.marks = append(tr.marks, append(vs, int64(e.Now()), int64(e.Processed()), int64(e.Pending()))...)
	}
	for _, s := range stops {
		// Deadlines on a 10µs grid land on event times often enough to
		// exercise the inclusive boundary.
		deadline := e.Now() + time.Duration(s)*10*time.Microsecond
		switch s % 4 {
		case 0:
			e.RunUntil(deadline)
			mark()
		case 1:
			n := e.Processed() + uint64(s%7)
			mark(flag(e.RunUntilDone(deadline, func() bool { return e.Processed() >= n })))
		case 2:
			mark(flag(e.Step()))
		default:
			p.cancel()
			p.schedule()
			mark()
		}
	}
	e.Run()
	mark()
	return tr
}

func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestLaneOracle: over random mixes of heap events and events on three
// lanes, with ties, cancels, schedules from inside handlers and every way
// of driving the engine, running with lanes is indistinguishable from
// running through AfterTo alone.
func TestLaneOracle(t *testing.T) {
	f := func(seed int64, stops []uint8) bool {
		want, got := runLaneProgram(seed, stops, false), runLaneProgram(seed, stops, true)
		if len(got.stream) != len(want.stream) || len(got.marks) != len(want.marks) {
			return false
		}
		for i := range want.stream {
			if got.stream[i] != want.stream[i] {
				return false
			}
		}
		for i := range want.marks {
			if got.marks[i] != want.marks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// The property means something only if the programs are large and
	// actually tie lane events with heap events.
	tr := runLaneProgram(1, []uint8{4, 9, 2, 3, 200, 17}, true)
	ties := 0
	for i := 1; i < len(tr.stream); i++ {
		if tr.stream[i].at == tr.stream[i-1].at {
			ties++
		}
	}
	if len(tr.stream) < 1000 || ties < 100 {
		t.Fatalf("oracle program too small to mean anything: %d events, %d equal-time neighbours", len(tr.stream), ties)
	}
}

// TestLaneIsMemoizedPerDelay: one lane per delay, negative delays clamp to
// the zero lane, and a lane event is pending, cancellable and inert once
// fired like any other.
func TestLaneIsMemoizedPerDelay(t *testing.T) {
	e := NewEngine(1)
	a, b := e.Lane(time.Millisecond), e.Lane(time.Millisecond)
	if a != b || a == e.Lane(2*time.Millisecond) {
		t.Fatalf("Lane(1ms) twice: %p and %p; want one lane per delay", a, b)
	}
	if z := e.Lane(-time.Second); z != e.Lane(0) || len(e.lanes) != 3 {
		t.Error("a negative delay did not clamp to the zero lane")
	}
	var got kinds
	doomed := a.After(&got, 1)
	a.After(&got, 2)
	if e.Pending() != 2 || doomed.At() != time.Millisecond {
		t.Fatalf("Pending = %d, At = %v; want 2, 1ms", e.Pending(), doomed.At())
	}
	doomed.Cancel()
	doomed.Cancel()
	if !doomed.Canceled() || e.Pending() != 1 {
		t.Fatalf("Canceled = %v, Pending = %d after Cancel; want true, 1", doomed.Canceled(), e.Pending())
	}
	e.Run()
	if len(got) != 1 || got[0] != 2 || e.Pending() != 0 {
		t.Errorf("delivered %v with %d pending, want [2] and 0", got, e.Pending())
	}
}
