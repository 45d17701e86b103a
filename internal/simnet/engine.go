// Package simnet provides a deterministic discrete-event simulation kernel.
//
// Everything in this repository that "runs on a cluster" actually runs on a
// simnet.Engine: node daemons are event handlers scheduled in virtual time,
// so a 20K-node, multi-day simulation executes in seconds of wall-clock time
// and is reproducible bit-for-bit for a given seed.
//
// The kernel is intentionally small: an event heap ordered by (time, seq),
// cancellable events, periodic timers, and labelled deterministic RNG
// streams. It is single-threaded by design; parallelism belongs across
// independent simulations, never inside one (see the experiment package's
// worker pool for the sanctioned cross-simulation form).
//
// # Hot-path data structures
//
// The event queue is a hand-rolled 4-ary min-heap over a slice of
// (time, seq, event) entries: comparisons read the ordering key straight
// from the slice (one cache line covers a whole sibling group) and nothing
// passes through an interface, so Push/Pop never box. Fired and cancelled
// events are returned to a free list and reused, so steady-state
// scheduling does not allocate inside the kernel, and not in the caller
// either when it schedules a Handler (ScheduleTo, AfterTo): the event
// stores the handler's interface value
// and a kind, so a component that is already a heap object — a message in
// flight, a delivery chain — is its own callback and names which of its
// events this is with the kind, where a func() would have to be a freshly
// allocated closure or method value per event. The Event handles callers
// hold are generation-stamped, so a handle retained past its event's
// death can never cancel or observe the slot's next occupant. When more
// than half the heap is cancelled events awaiting their pop (Ticker-heavy
// workloads), the heap is compacted in place. Neither change is
// observable in the (time, seq) execution order: cancelled events never
// fire and the heap order is a total order, so every heap shape pops the
// same sequence.
package simnet

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"eslurm/internal/obs"
)

// Handler is a component that receives the events it scheduled for
// itself. kind is whatever the component passed when scheduling and is
// opaque to the kernel: one object can stand for several events of its life
// (a message's landing, its timeout) without allocating a callback for
// each.
type Handler interface {
	HandleEvent(kind int32)
}

// funcHandler adapts a plain func() to Handler. A func value is
// pointer-shaped, so the conversion to the interface allocates nothing and
// Schedule/After/Every cost what they did when the event stored the func.
type funcHandler func()

func (f funcHandler) HandleEvent(int32) { f() }

// event is the pooled kernel object behind an Event handle. It is reused
// across many scheduled callbacks; gen counts the reuses so stale handles
// can be told apart from live ones.
type event struct {
	at       time.Duration
	seq      uint64
	gen      uint64  // bumped each time the object is taken from the pool
	h        Handler // with kind, the event's whole payload
	e        *Engine
	index    int // position in heap; -1 once popped or collected
	kind     int32
	canceled bool
}

// Event is a handle to a scheduled callback in virtual time. Events are
// one-shot; use Engine.Every for periodic work.
//
// Handles are generation-checked values: the kernel pools the underlying
// objects, but a handle retained after its event fired (or was cancelled
// and collected) goes inert rather than aliasing a later event — Cancel
// becomes a no-op and Canceled reports false once the pooled object has
// been reused. Canceled reports true for a cancelled event at least until
// its object is reused for a new one. The zero Event is valid and inert.
type Event struct {
	ev  *event
	gen uint64
	at  time.Duration
}

// At returns the virtual time the event was scheduled for.
func (h Event) At() time.Duration { return h.at }

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled, or zero handle is a no-op.
func (h Event) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled || ev.index < 0 {
		return
	}
	ev.canceled = true
	eng := ev.e
	eng.canceled++
	// Ticker-heavy workloads cancel far more events than they fire; once
	// the majority of heap slots are dead weight, rebuild without them.
	if eng.canceled*2 > len(eng.events) && len(eng.events) >= compactMin {
		eng.compact()
	}
}

// Canceled reports whether Cancel was called before the event fired. Once
// the pooled object behind a dead handle is reused for a later event,
// Canceled reports false regardless of how the original event ended.
func (h Event) Canceled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.canceled
}

// heapEntry carries an event's ordering key inline so heap comparisons
// never chase the event pointer.
type heapEntry struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// entryBefore reports whether entry a orders before entry b under the
// (time, seq) total order. It is the heap's single ordering predicate;
// the compiler inlines it into the sift loops.
func entryBefore(a, b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// compactMin is the heap size below which compaction is not worth it: the
// regular pop-and-skip path reclaims small heaps quickly enough.
const compactMin = 64

// eventBlock is how many pooled events are allocated at once when the
// free list runs dry; block allocation amortizes steady-state scheduling
// to zero allocations per event.
const eventBlock = 64

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now       time.Duration
	seq       uint64
	events    []heapEntry // 4-ary min-heap ordered by (at, seq)
	canceled  int         // cancelled events still occupying heap slots
	free      []*event    // pool of dead events awaiting reuse
	seed      int64
	rands     map[string]*rand.Rand
	processed uint64
	tickers   int // Every tickers not yet stopped
	observer  func(at time.Duration, seq uint64)
	digest    uint64        // FNV-1a over (at, seq), armed by EnableDigest
	tracer    *obs.Tracer   // nil unless EnableTracing was called
	metrics   *obs.Registry // lazily built by Metrics
}

// NewEngine returns an engine at virtual time zero. The seed roots every RNG
// stream derived via Rand, making whole simulations reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events still scheduled. Cancelled
// events awaiting collection are not counted.
func (e *Engine) Pending() int { return len(e.events) - e.canceled }

// siftUp restores the heap property from slot i toward the root.
func (e *Engine) siftUp(i int) {
	h := e.events
	ent := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if entryBefore(&h[p], &ent) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = ent
	ent.ev.index = i
}

// siftDown restores the heap property from slot i toward the leaves.
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ent := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryBefore(&h[j], &h[m]) {
				m = j
			}
		}
		if entryBefore(&ent, &h[m]) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = ent
	ent.ev.index = i
}

// popMin removes and returns the heap's earliest event.
func (e *Engine) popMin() *event {
	ev := e.events[0].ev
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = heapEntry{}
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

// compact rebuilds the heap without its cancelled entries, returning the
// dead events to the pool. Invisible to execution order: the surviving
// entries pop in the same (time, seq) sequence from any valid heap shape.
func (e *Engine) compact() {
	live := e.events[:0]
	for _, ent := range e.events {
		if ent.ev.canceled {
			e.recycle(ent.ev)
			continue
		}
		live = append(live, ent)
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = heapEntry{}
	}
	e.events = live
	e.canceled = 0
	for i := range e.events {
		e.events[i].ev.index = i
	}
	// Heapify only when two or more entries survive: (n-2)/4 truncates to
	// zero for n of 0 or 1, and siftDown(0) on an empty heap would read
	// past the slice (a single survivor is trivially a heap).
	if n := len(e.events); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// recycle returns a dead event to the pool. The canceled flag is left as
// is so dead handles keep answering Canceled truthfully until the object
// is reused (newEvent resets it).
func (e *Engine) recycle(ev *event) {
	ev.h = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// newEvent takes an event from the pool, refilling it a block at a time.
// Bumping gen here is what retires every handle to the object's previous
// life.
func (e *Engine) newEvent() *event {
	if len(e.free) == 0 {
		block := make([]event, eventBlock)
		for i := range block {
			block[i].e = e
			block[i].index = -1
			e.free = append(e.free, &block[i])
		}
	}
	n := len(e.free) - 1
	ev := e.free[n]
	e.free[n] = nil
	e.free = e.free[:n]
	ev.gen++
	ev.canceled = false
	return ev
}

// ScheduleTo delivers kind to h at absolute virtual time t. Scheduling in
// the past (t < Now) panics: it would silently reorder causality.
func (e *Engine) ScheduleTo(t time.Duration, h Handler, kind int32) Event {
	if t < e.now {
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.h, ev.kind = t, e.seq, h, kind
	e.events = append(e.events, heapEntry{t, e.seq, ev})
	e.siftUp(len(e.events) - 1)
	return Event{ev: ev, gen: ev.gen, at: t}
}

// AfterTo delivers kind to h d after the current virtual time. Negative d
// is clamped to zero so callers may subtract without guarding.
func (e *Engine) AfterTo(d time.Duration, h Handler, kind int32) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleTo(e.now+d, h, kind)
}

// Schedule runs fn at absolute virtual time t: ScheduleTo for a caller
// whose callback is not an object of its own.
func (e *Engine) Schedule(t time.Duration, fn func()) Event {
	return e.ScheduleTo(t, funcHandler(fn), 0)
}

// After runs fn d after the current virtual time, clamped like AfterTo.
func (e *Engine) After(d time.Duration, fn func()) Event {
	return e.AfterTo(d, funcHandler(fn), 0)
}

// Ticker is a handle to a periodic task registered with Every.
type Ticker struct {
	e       *Engine
	stopped bool
	current Event
}

// Stop halts the periodic task. The in-flight occurrence (if any) is
// cancelled too; generation checking makes the cancel inert when the
// occurrence has already fired, so stopping twice is safe. The first
// Stop takes the ticker off the engine's LiveTickers count.
func (t *Ticker) Stop() {
	if !t.stopped {
		t.stopped = true
		t.e.tickers--
	}
	t.current.Cancel()
}

// LiveTickers returns how many Every tickers have not been stopped. A
// live ticker re-arms forever, so Run cannot return while one exists:
// a teardown that means to drain the engine checks this is zero first.
func (e *Engine) LiveTickers() int { return e.tickers }

// Every runs fn every period, the first invocation after one period. A
// non-positive period panics.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("simnet: Every requires a positive period")
	}
	t := &Ticker{e: e}
	e.tickers++
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn()
		if !t.stopped {
			t.current = e.After(period, tick)
		}
	}
	t.current = e.After(period, tick)
	return t
}

// Step executes the single earliest pending event. It returns false when no
// runnable event remains.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.popMin()
		if ev.canceled {
			e.canceled--
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.processed++
		if e.observer != nil {
			e.observer(ev.at, ev.seq)
		}
		h, kind := ev.h, ev.kind
		ev.h = nil
		h.HandleEvent(kind)
		// Recycle only after the handler returns: user code may run inside
		// it while the handle is still the live in-flight event.
		e.recycle(ev)
		return true
	}
	return false
}

// Run executes events until the heap is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	for {
		if at, ok := e.peekNext(); !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunUntilDone executes events with time ≤ deadline until done reports
// true, checking it before every event, so it stops on the event after
// which done first holds. The clock stays at that event: it is not moved
// to the deadline. It reports whether done held; false means the deadline
// (or an empty heap) came first.
func (e *Engine) RunUntilDone(deadline time.Duration, done func() bool) bool {
	for !done() {
		if at, ok := e.peekNext(); !ok || at > deadline {
			return false
		}
		e.Step()
	}
	return true
}

// peekNext returns the time of the next live event, collecting cancelled
// entries at the root so the answer reflects what will actually fire.
func (e *Engine) peekNext() (time.Duration, bool) {
	for len(e.events) > 0 && e.events[0].ev.canceled {
		e.canceled--
		e.recycle(e.popMin())
	}
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// Observe registers fn to be invoked just before each event executes,
// with the event's virtual time and sequence number. The (at, seq) stream
// is the engine's complete execution trace, so hashing it gives a cheap
// digest for determinism audits: two runs of the same seed must produce
// identical streams. One observer at a time; pass nil to clear.
func (e *Engine) Observe(fn func(at time.Duration, seq uint64)) { e.observer = fn }

// EnableDigest arms an FNV-1a digest of the (at, seq) execution stream,
// claiming the Observe slot. Call before running; read it with Digest.
func (e *Engine) EnableDigest() {
	e.digest = fnvOffset
	e.Observe(func(at time.Duration, seq uint64) { e.digest = fnvMix(fnvMix(e.digest, uint64(at)), seq) })
}

// Digest returns the execution-stream digest, folded as stream 0 of a
// list of streams (the form the tests' pinned constants are recorded in).
// Two runs of the same seed produce the same digest.
func (e *Engine) Digest() uint64 { return fnvMix(fnvMix(fnvOffset, 0), e.digest) }

// FNV-1a mixing for the digest.
const fnvOffset = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Rand returns a deterministic RNG stream derived from the engine seed and a
// label. Equal (seed, label) pairs always yield identically-seeded streams,
// so adding a new consumer with its own label never perturbs existing ones.
//
// Streams are memoized per label: repeated calls with the same label on the
// same engine return the same stream object (continuing where it left off)
// rather than re-deriving a fresh one, so a label names one logical stream
// per engine and repeat lookups cost a map hit instead of a 5KB re-seed.
// Callers that need a restarted stream must use a distinct label.
func (e *Engine) Rand(label string) *rand.Rand {
	if r, ok := e.rands[label]; ok {
		return r
	}
	r := rand.New(rand.NewSource(deriveSeed(e.seed, label)))
	if e.rands == nil {
		e.rands = make(map[string]*rand.Rand)
	}
	e.rands[label] = r
	return r
}

// deriveSeed hashes (seed, label) into a stream seed: FNV-1a over the
// decimal seed, a '/', and the label — bit-compatible with the original
// fmt.Fprintf(fnv.New64a(), "%d/%s", seed, label) derivation, without the
// hasher and boxing allocations.
func deriveSeed(seed int64, label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], seed, 10) {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= '/'
	h *= prime64
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return int64(h)
}
