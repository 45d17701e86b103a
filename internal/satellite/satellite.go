// Package satellite implements the satellite-node state machine of Fig. 2
// and Table II of the paper, and the round-robin satellite pool the master
// draws from when splitting broadcast tasks (Section III-B/C).
//
// Satellite nodes "do not participate in computing tasks and do not retain
// any system state. They act as bidirectional communication buffers with
// initial data aggregation and processing capabilities between the master
// node and the computing nodes."
//
// Determinism: transitions happen synchronously inside Apply (itself
// called from engine events) and the FAULT-timeout demotion is a
// scheduled engine event, so pool state replays bit-identically from the
// seed; the obs transition records are passive.
package satellite

import (
	"fmt"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/obs"
	"eslurm/internal/simnet"
)

// State is a satellite node's lifecycle state (Table II).
type State int

const (
	// Unknown: satellite node state remains unknown (initial).
	Unknown State = iota
	// Running: satellite node is operating as expected.
	Running
	// Busy: satellite node is processing broadcast tasks.
	Busy
	// Fault: satellite node has failed.
	Fault
	// Down: satellite node is shut down; administrator intervention needed.
	Down
)

func (s State) String() string {
	switch s {
	case Unknown:
		return "UNKNOWN"
	case Running:
		return "RUNNING"
	case Busy:
		return "BUSY"
	case Fault:
		return "FAULT"
	case Down:
		return "DOWN"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Event drives state transitions (Table II).
type Event int

const (
	// EvBTAssigned: a broadcast task was handed to the satellite.
	EvBTAssigned Event = iota
	// EvBTSuccess: satellite successfully processed a broadcast task.
	EvBTSuccess
	// EvBTFailure: satellite failed to process a broadcast task.
	EvBTFailure
	// EvHBSuccess: heartbeat confirms the satellite is healthy.
	EvHBSuccess
	// EvHBFailure: heartbeat shows the satellite is abnormal.
	EvHBFailure
	// EvShutdown: a shutdown command is sent to the satellite.
	EvShutdown
	// EvTimeout: satellite stayed in FAULT past the timeout (≥ 20 min).
	EvTimeout
)

func (e Event) String() string {
	switch e {
	case EvBTAssigned:
		return "BT-assigned"
	case EvBTSuccess:
		return "BT-success"
	case EvBTFailure:
		return "BT-failure"
	case EvHBSuccess:
		return "HB-success"
	case EvHBFailure:
		return "HB-failure"
	case EvShutdown:
		return "SHUTDOWN"
	case EvTimeout:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// ErrInvalidTransition reports an event that is not legal in the current
// state.
type ErrInvalidTransition struct {
	From State
	Ev   Event
}

func (e *ErrInvalidTransition) Error() string {
	return fmt.Sprintf("satellite: event %v invalid in state %v", e.Ev, e.From)
}

// Satellite tracks the master's view of one satellite node.
type Satellite struct {
	ID    cluster.NodeID
	state State
	// faultSince is when the satellite entered FAULT (valid while state ==
	// Fault).
	faultSince time.Duration
	// busyTasks counts broadcast tasks in flight; the satellite returns to
	// RUNNING only when the last one resolves successfully.
	busyTasks int
	// cordoned marks the satellite administratively unschedulable: it keeps
	// its Table II state but round-robin selection skips it. Orthogonal to
	// the state machine — a cordoned satellite still heartbeats and may
	// finish in-flight tasks (the graceful-drain window).
	cordoned bool

	// Counters for Table VI reporting.
	TasksReceived int
	TasksFailed   int
	NodesServed   int
}

// State returns the current state.
func (s *Satellite) State() State { return s.state }

// Cordoned reports whether the satellite is administratively
// unschedulable (skipped by round-robin selection).
func (s *Satellite) Cordoned() bool { return s.cordoned }

// FaultSince returns when the satellite entered FAULT (zero unless in
// Fault).
func (s *Satellite) FaultSince() time.Duration { return s.faultSince }

// Transition applies an event at virtual time now, returning the new state
// or an ErrInvalidTransition. The transition table follows Fig. 2:
//
//	UNKNOWN --HB-success--> RUNNING
//	UNKNOWN --HB-failure--> FAULT
//	RUNNING --BT-assigned--> BUSY
//	RUNNING --HB-failure--> FAULT
//	BUSY    --BT-success--> RUNNING (when no tasks remain in flight)
//	BUSY    --BT-failure--> FAULT
//	BUSY    --HB-failure--> FAULT
//	FAULT   --HB-success--> RUNNING
//	FAULT   --TIMEOUT----> DOWN
//	any non-DOWN --SHUTDOWN--> DOWN
//
// HB-success in RUNNING/BUSY and HB-failure in FAULT are absorbed (no
// change); everything else is invalid.
func (s *Satellite) Transition(ev Event, now time.Duration) (State, error) {
	invalid := func() (State, error) { return s.state, &ErrInvalidTransition{From: s.state, Ev: ev} }
	if ev == EvShutdown {
		if s.state == Down {
			return Down, nil
		}
		s.state = Down
		s.busyTasks = 0
		return Down, nil
	}
	switch s.state {
	case Unknown:
		switch ev {
		case EvHBSuccess:
			s.state = Running
		case EvHBFailure:
			s.enterFault(now)
		default:
			return invalid()
		}
	case Running:
		switch ev {
		case EvBTAssigned:
			s.state = Busy
			s.busyTasks = 1
			s.TasksReceived++
		case EvHBSuccess:
			// absorbed
		case EvHBFailure:
			s.enterFault(now)
		default:
			return invalid()
		}
	case Busy:
		switch ev {
		case EvBTAssigned:
			s.busyTasks++
			s.TasksReceived++
		case EvBTSuccess:
			if s.busyTasks > 0 {
				s.busyTasks--
			}
			if s.busyTasks == 0 {
				s.state = Running
			}
		case EvBTFailure:
			s.TasksFailed++
			s.enterFault(now)
		case EvHBSuccess:
			// absorbed
		case EvHBFailure:
			s.enterFault(now)
		default:
			return invalid()
		}
	case Fault:
		switch ev {
		case EvHBSuccess:
			s.state = Running
		case EvHBFailure:
			// absorbed; faultSince keeps its original value
		case EvTimeout:
			s.state = Down
		case EvBTSuccess, EvBTFailure:
			// A task outcome arriving after the satellite already faulted
			// (e.g. HB-failure raced the task) is absorbed.
		default:
			return invalid()
		}
	case Down:
		// Only administrator intervention (Reinstate) leaves DOWN.
		return invalid()
	}
	return s.state, nil
}

func (s *Satellite) enterFault(now time.Duration) {
	s.state = Fault
	s.faultSince = now
	s.busyTasks = 0
}

// Reinstate models administrator intervention on a DOWN satellite,
// returning it to UNKNOWN (the next successful heartbeat promotes it).
func (s *Satellite) Reinstate() { s.state = Unknown; s.busyTasks = 0 }

// Health is a point-in-time census of the pool by state.
type Health struct {
	Unknown, Running, Busy, Fault, Down int
}

// Alive returns the satellites currently serviceable (RUNNING or BUSY).
func (h Health) Alive() int { return h.Running + h.Busy }

// Total returns the pool size.
func (h Health) Total() int { return h.Unknown + h.Running + h.Busy + h.Fault + h.Down }

// Drained reports the pool has fully drained to FAULT/DOWN: no satellite
// can serve a broadcast now or after finishing its current task. The
// master's graceful-degradation path (direct tree broadcast) keys off
// this.
func (h Health) Drained() bool {
	t := h.Total()
	return t > 0 && h.Fault+h.Down == t
}

// Pool is the master's satellite-node pool with round-robin selection over
// RUNNING satellites (Section III-B) and FAULT-timeout demotion
// (Section III-C, Table II: TIMEOUT default ≥ 20 min).
type Pool struct {
	engine *simnet.Engine
	sats   []*Satellite
	next   int
	// drains tracks pending graceful drains: a cordoned BUSY satellite
	// waiting for its in-flight tasks to resolve before demotion, with a
	// deadline timer that forces the demotion if they never do. At most one
	// drain per satellite; completion removes the record and cancels the
	// timer, so external demotions (SHUTDOWN, FAULT-timeout) while a drain
	// is pending complete it without double-demoting or leaking the timer.
	drains map[cluster.NodeID]*drainRec
	// FaultTimeout is how long a satellite may remain in FAULT before a
	// TIMEOUT event demotes it to DOWN.
	FaultTimeout time.Duration
	// OnChange, when set, observes every satellite state change made
	// through the pool (Apply and the internal FAULT-timeout demotion):
	// the satellite, its old and new states, and the pool census after the
	// change. It fires synchronously — no simulation events — so wiring an
	// observer does not perturb the event trace. Transitions applied
	// directly on a Satellite (bypassing the pool) are not observed.
	OnChange func(s *Satellite, from, to State, h Health)
}

// NewPool builds a pool over the given satellite node IDs. All satellites
// start UNKNOWN; the caller's heartbeat loop promotes them.
func NewPool(e *simnet.Engine, ids []cluster.NodeID) *Pool {
	p := &Pool{engine: e, FaultTimeout: 20 * time.Minute}
	for _, id := range ids {
		p.sats = append(p.sats, &Satellite{ID: id})
	}
	return p
}

// Size returns the number of satellites configured (m in Eq. 1).
func (p *Pool) Size() int { return len(p.sats) }

// All returns the satellites in configuration order.
func (p *Pool) All() []*Satellite { return p.sats }

// Get returns the satellite tracking the given node ID, or nil.
func (p *Pool) Get(id cluster.NodeID) *Satellite {
	for _, s := range p.sats {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// RunningCount returns the number of satellites eligible for broadcasts.
// Cordoned satellites are excluded: they may still be RUNNING but cannot
// be selected, so they must not inflate the Eq. 1 fanout.
func (p *Pool) RunningCount() int {
	k := 0
	for _, s := range p.sats {
		if s.state == Running && !s.cordoned {
			k++
		}
	}
	return k
}

// NextRunning returns the next RUNNING satellite in round-robin order, or
// nil when none is available. BUSY satellites are skipped: "only satellite
// nodes at the RUNNING state will be chosen to participate in message
// broadcasting." Cordoned satellites are skipped too — that is what makes
// a drain graceful: no new tasks land while in-flight ones resolve.
func (p *Pool) NextRunning() *Satellite {
	n := len(p.sats)
	for i := 0; i < n; i++ {
		s := p.sats[(p.next+i)%n]
		if s.state == Running && !s.cordoned {
			p.next = (p.next + i + 1) % n
			return s
		}
	}
	return nil
}

// SelectRunning returns up to k distinct RUNNING satellites in round-robin
// order.
func (p *Pool) SelectRunning(k int) []*Satellite {
	var out []*Satellite
	seen := map[cluster.NodeID]bool{}
	for len(out) < k {
		s := p.NextRunning()
		if s == nil || seen[s.ID] {
			break
		}
		seen[s.ID] = true
		out = append(out, s)
	}
	return out
}

// Health returns the current pool census.
func (p *Pool) Health() Health {
	var h Health
	for _, s := range p.sats {
		switch s.state {
		case Unknown:
			h.Unknown++
		case Running:
			h.Running++
		case Busy:
			h.Busy++
		case Fault:
			h.Fault++
		case Down:
			h.Down++
		}
	}
	return h
}

// Drained reports whether every satellite is FAULT or DOWN.
func (p *Pool) Drained() bool { return p.Health().Drained() }

// drainRec is one graceful drain.
type drainRec struct {
	timer simnet.Event
	done  func(clean bool)
}

// settle completes the drain: it cancels the deadline and hands clean to
// done, clearing done first, so a drain settles exactly once however many
// completion paths reach it.
func (d *drainRec) settle(clean bool) {
	d.timer.Cancel()
	done := d.done
	d.done = nil
	if done != nil {
		done(clean)
	}
}

// Cordon marks a satellite unschedulable without touching its state.
// Returns false for an unknown ID.
func (p *Pool) Cordon(id cluster.NodeID) bool {
	s := p.Get(id)
	if s == nil {
		return false
	}
	s.cordoned = true
	return true
}

// Uncordon clears the unschedulable mark. It refuses while a drain is
// pending (the drain owns the cordon until it completes) and for unknown
// IDs.
func (p *Pool) Uncordon(id cluster.NodeID) bool {
	s := p.Get(id)
	if s == nil || p.drains[id] != nil {
		return false
	}
	s.cordoned = false
	return true
}

// CordonedCount returns the number of cordoned satellites.
func (p *Pool) CordonedCount() int {
	k := 0
	for _, s := range p.sats {
		if s.cordoned {
			k++
		}
	}
	return k
}

// Draining reports whether a graceful drain is pending for the satellite.
func (p *Pool) Draining(id cluster.NodeID) bool { return p.drains[id] != nil }

// DrainingCount returns the number of pending graceful drains.
func (p *Pool) DrainingCount() int { return len(p.drains) }

// Reinstate models administrator intervention through the pool: a DOWN
// satellite returns to UNKNOWN (and is uncordoned) so the next successful
// heartbeat can promote it. Unlike Satellite.Reinstate, the transition is
// observed (metrics, trace, OnChange). Returns false unless the satellite
// exists and is DOWN.
func (p *Pool) Reinstate(id cluster.NodeID) bool {
	s := p.Get(id)
	if s == nil || s.state != Down {
		return false
	}
	s.Reinstate()
	s.cordoned = false
	p.notify(s, Down, Unknown)
	return true
}

// Drain gracefully demotes a satellite: cordon it (no new tasks), let
// in-flight broadcast tasks resolve, then apply SHUTDOWN. If the satellite
// is still BUSY when the deadline elapses, the demotion is forced. done is
// called exactly once with clean=true when the satellite left BUSY on its
// own (or was never BUSY) and clean=false when the deadline forced it or a
// fault demoted it first. An external demotion while the drain is pending
// (a FAULT timeout) completes the drain — the deadline
// timer is cancelled and the satellite is not demoted twice. Deterministic:
// the deadline is an engine event and all completion paths run inside
// engine callbacks.
func (p *Pool) Drain(id cluster.NodeID, deadline time.Duration, done func(clean bool)) error {
	s := p.Get(id)
	if s == nil {
		return fmt.Errorf("satellite: drain: unknown satellite %d", id)
	}
	if p.drains[id] != nil {
		return fmt.Errorf("satellite: drain: satellite %d already draining", id)
	}
	s.cordoned = true
	d := &drainRec{done: done}
	if s.state != Busy {
		if s.state != Down {
			p.Apply(s, EvShutdown)
		}
		d.settle(true)
		return nil
	}
	if p.drains == nil {
		p.drains = map[cluster.NodeID]*drainRec{}
	}
	p.drains[id] = d
	d.timer = p.engine.After(deadline, func() {
		if p.drains[id] != d {
			return // completed (or superseded) before the deadline
		}
		delete(p.drains, id)
		if s.state != Down {
			p.Apply(s, EvShutdown)
		}
		d.settle(false)
	})
	return nil
}

// drainCheck completes a pending drain when its satellite leaves BUSY.
// Called from notify after every observed transition; the record is
// removed and the timer cancelled before any further transition is
// applied, so completion cannot recurse or fire twice.
func (p *Pool) drainCheck(s *Satellite, to State) {
	d := p.drains[s.ID]
	if d == nil || to == Busy {
		return
	}
	delete(p.drains, s.ID)
	d.timer.Cancel()
	if to != Down {
		p.Apply(s, EvShutdown)
	}
	d.settle(to == Running)
}

// notify fires the OnChange observer for a completed state change and
// records the transition on the engine's observability layer: counters
// satellite.transitions / satellite.faults / satellite.downs, plus a
// "satellite.transition" trace instant when tracing is enabled. Recording
// is passive (no events, no RNG), so it cannot perturb the event trace.
func (p *Pool) notify(s *Satellite, from, to State) {
	if from == to {
		return
	}
	reg := p.engine.Metrics()
	reg.Counter("satellite.transitions").Inc()
	switch to {
	case Fault:
		reg.Counter("satellite.faults").Inc()
	case Down:
		reg.Counter("satellite.downs").Inc()
	}
	p.engine.Tracer().Instant("satellite.transition", 0,
		obs.Int("sat", int(s.ID)),
		obs.String("from", from.String()),
		obs.String("to", to.String()))
	if p.OnChange != nil {
		p.OnChange(s, from, to, p.Health())
	}
	p.drainCheck(s, to)
}

// Apply transitions a satellite and, on entry to FAULT, schedules the
// TIMEOUT check that demotes it to DOWN if it has not recovered.
func (p *Pool) Apply(s *Satellite, ev Event) (State, error) {
	before := s.state
	st, err := s.Transition(ev, p.engine.Now())
	if err != nil {
		return st, err
	}
	if st == Fault && before != Fault {
		since := s.faultSince
		p.engine.After(p.FaultTimeout, func() {
			if s.state == Fault && s.faultSince == since {
				s.Transition(EvTimeout, p.engine.Now())
				p.notify(s, Fault, Down)
			}
		})
	}
	p.notify(s, before, st)
	return st, nil
}
