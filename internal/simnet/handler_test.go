package simnet

// Tests for the event payload: an event carries a (Handler, kind) pair and
// a func() is one Handler among others, so the two scheduling forms must be
// indistinguishable to everything but the allocator.

import (
	"math/rand"
	"testing"
	"time"
)

// program is a random self-scheduling workload: every fired event draws
// what to do next — arm more events, cancel an old handle (live, fired or
// stale), re-arm — and a ticker arms events on the side. arm is the one
// place the scheduling form shows.
type program struct {
	rng     *rand.Rand
	arm     func(d time.Duration, id int32) Event
	handles []Event
	budget  int
	fired   []int32
}

func (p *program) HandleEvent(kind int32) { p.step(kind) }

func (p *program) delay() time.Duration {
	return time.Duration(p.rng.Intn(500)) * time.Microsecond
}

func (p *program) spawn() {
	if p.budget == 0 {
		return
	}
	p.budget--
	p.handles = append(p.handles, p.arm(p.delay(), int32(len(p.handles))))
}

func (p *program) step(id int32) {
	p.fired = append(p.fired, id)
	switch p.rng.Intn(4) {
	case 0:
		p.spawn()
		p.spawn()
	case 1:
		p.handles[p.rng.Intn(len(p.handles))].Cancel()
		p.spawn()
	case 2: // re-arm: the old timer dies, a new one takes its place
		i := p.rng.Intn(len(p.handles))
		p.handles[i].Cancel()
		p.handles[i] = p.arm(p.delay(), int32(i))
	default:
		p.spawn()
	}
}

// runProgram drives the program to completion and returns the engine's
// (at, seq) digest, the order the events fired in and how many the kernel
// processed.
func runProgram(seed int64, handlerForm bool) (uint64, []int32, uint64) {
	e := NewEngine(seed)
	p := &program{rng: rand.New(rand.NewSource(seed)), budget: 5000}
	if handlerForm {
		p.arm = func(d time.Duration, id int32) Event { return e.AfterTo(d, p, id) }
	} else {
		p.arm = func(d time.Duration, id int32) Event { return e.After(d, func() { p.step(id) }) }
	}
	digest := uint64(fnvOffset)
	e.Observe(func(at time.Duration, seq uint64) { digest = fnvMix(fnvMix(digest, uint64(at)), seq) })
	for i := 0; i < 8; i++ {
		p.spawn()
	}
	ticks := 0
	var tk *Ticker
	tk = e.Every(700*time.Microsecond, func() {
		p.spawn()
		if ticks++; ticks == 40 {
			tk.Stop()
		}
	})
	e.Run()
	return digest, p.fired, e.Processed()
}

// TestHandlerFormMatchesFuncForm: the same program scheduled through
// After(func()) and through AfterTo(Handler, kind) executes the same
// (at, seq) stream and fires its events in the same order.
func TestHandlerFormMatchesFuncForm(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fd, ff, fn := runProgram(seed, false)
		hd, hf, hn := runProgram(seed, true)
		if fn < 1000 {
			t.Fatalf("seed %d: program too small to mean anything: %d events", seed, fn)
		}
		if fd != hd || fn != hn {
			t.Errorf("seed %d: func form digest %016x over %d events, handler form %016x over %d", seed, fd, fn, hd, hn)
		}
		if len(ff) != len(hf) {
			t.Fatalf("seed %d: %d events fired in func form, %d in handler form", seed, len(ff), len(hf))
		}
		for i := range ff {
			if ff[i] != hf[i] {
				t.Fatalf("seed %d: firing %d is event %d in func form, %d in handler form", seed, i, ff[i], hf[i])
			}
		}
	}
}

// kinds records what it was handed.
type kinds []int32

func (k *kinds) HandleEvent(kind int32) { *k = append(*k, kind) }

// TestHandlerEventSemantics holds handler events to the contract the func
// form is pinned to elsewhere in this package.
func TestHandlerEventSemantics(t *testing.T) {
	t.Run("kind is delivered in (time, seq) order", func(t *testing.T) {
		e := NewEngine(1)
		var got kinds
		e.ScheduleTo(2*time.Second, &got, 3)
		e.ScheduleTo(time.Second, &got, 1)
		e.ScheduleTo(time.Second, &got, 2)
		e.Run()
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("delivered %v, want [1 2 3]", got)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		e := NewEngine(2)
		var got kinds
		ev := e.AfterTo(time.Second, &got, 1)
		if ev.Canceled() {
			t.Error("fresh handle reports Canceled")
		}
		ev.Cancel()
		ev.Cancel()
		if !ev.Canceled() || e.Pending() != 0 {
			t.Errorf("Canceled = %v, Pending = %d after Cancel; want true, 0", ev.Canceled(), e.Pending())
		}
		e.Run()
		if len(got) != 0 {
			t.Errorf("cancelled event fired: %v", got)
		}
	})
	t.Run("stale handle to a recycled event is inert", func(t *testing.T) {
		e := NewEngine(3)
		var got kinds
		a := e.AfterTo(time.Second, &got, 1)
		e.Run()
		b := e.AfterTo(time.Second, &got, 2)
		if b.ev != a.ev {
			t.Fatal("test setup: pool did not hand the fired event's object to the next schedule")
		}
		a.Cancel()
		if a.Canceled() || b.Canceled() {
			t.Error("stale Cancel reached the slot's next occupant")
		}
		e.Run()
		if len(got) != 2 || got[1] != 2 {
			t.Errorf("delivered %v, want [1 2]", got)
		}
	})
	t.Run("a fired event releases its handler", func(t *testing.T) {
		e := NewEngine(4)
		var got kinds
		ev := e.AfterTo(time.Second, &got, 1)
		e.Run()
		if ev.ev.h != nil {
			t.Error("pooled event still references its handler after firing")
		}
	})
	t.Run("negative delay clamps to now", func(t *testing.T) {
		e := NewEngine(5)
		var got kinds
		e.ScheduleTo(time.Second, &got, 1)
		e.Step()
		if ev := e.AfterTo(-time.Minute, &got, 2); ev.At() != time.Second {
			t.Errorf("clamped event at %v, want 1s", ev.At())
		}
	})
	t.Run("scheduling in the past panics", func(t *testing.T) {
		e := NewEngine(6)
		var got kinds
		e.ScheduleTo(time.Second, &got, 1)
		e.Step()
		defer func() {
			if recover() == nil {
				t.Error("ScheduleTo before now did not panic")
			}
		}()
		e.ScheduleTo(time.Millisecond, &got, 2)
	})
}

// counter is a handler with no state to grow.
type counter struct{ n int }

func (c *counter) HandleEvent(int32) { c.n++ }

// TestAllocsScheduleFire is the kernel's allocation budget: on a warm
// engine a schedule→fire round trip allocates nothing in either form —
// given, for the func form, a func the caller already has — nor does a
// schedule→cancel→fire round trip or a repeated Rand lookup of one label.
func TestAllocsScheduleFire(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEngine(1)
	h := &counter{}
	nop := func() {}
	for i := 0; i < 2*eventBlock; i++ {
		e.AfterTo(time.Duration(i)*time.Millisecond, h, 0)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.AfterTo(time.Second, h, 7)
		e.Step()
	}); n != 0 {
		t.Errorf("handler-form schedule+fire: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.After(time.Second, nop)
		e.Step()
	}); n != 0 {
		t.Errorf("func-form schedule+fire: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		doomed := e.AfterTo(time.Millisecond, h, 1)
		e.AfterTo(time.Second, h, 2)
		doomed.Cancel()
		e.Step()
	}); n != 0 {
		t.Errorf("schedule+cancel+fire: %v allocs/op, want 0", n)
	}
	// AllocsPerRun's warm-up call creates the stream; the runs look it up.
	if n := testing.AllocsPerRun(1000, func() { e.Rand("alloc/label") }); n != 0 {
		t.Errorf("repeated Rand lookup: %v allocs/op, want 0", n)
	}

}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
