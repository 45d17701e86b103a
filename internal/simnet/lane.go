package simnet

import "time"

// Lane is a FIFO of events that all fire a fixed delay after they were
// scheduled. Now never decreases and seq always increases, so the events
// of one lane are already in (time, seq) order as they are appended: the
// lane needs no heap, and Step takes the least of the heap root and the
// lane heads. An event's place in the total order is the same on a lane
// as on the heap, so moving a fixed-delay schedule onto its lane never
// changes what fires when.
//
// The lane is an intrusive list through the pooled events themselves, so
// a lane schedule allocates nothing and holds no memory once it drains.
type Lane struct {
	e          *Engine
	d          time.Duration
	head, tail *event
}

// Lane returns the engine's lane for delay d, creating it on first use;
// every call with the same d returns the same lane. Negative d is clamped
// to zero, as in AfterTo. Step scans every lane an engine has, so a lane
// is for a delay that many events share.
func (e *Engine) Lane(d time.Duration) *Lane {
	if d < 0 {
		d = 0
	}
	for _, l := range e.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Lane{e: e, d: d}
	e.lanes = append(e.lanes, l)
	return l
}

// After delivers kind to h the lane's delay after the current virtual
// time: AfterTo with that delay, without the heap.
func (l *Lane) After(h Handler, kind int32) Event {
	e := l.e
	ev := e.arm(e.now+l.d, h, kind, inLane)
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
	e.laneLive++
	return Event{ev: ev, gen: ev.gen, at: ev.at}
}

// pop removes and returns the lane's head, live or cancelled.
func (l *Lane) pop() *event {
	ev := l.head
	l.head, ev.next = ev.next, nil
	if l.head == nil {
		l.tail = nil
	}
	ev.queued = notQueued
	if !ev.canceled {
		l.e.laneLive--
	}
	return ev
}
