// Package comm implements the five communication structures compared in
// Section VII-A (Fig. 8b): ring, star, shared-memory, plain k-ary tree and
// the FP-Tree, all with identical fault-tolerance semantics so the
// comparison isolates the structure itself — exactly as the paper does
// ("we separate the communication structure from RM and reproduce various
// structures using the same techniques ... the number of retries for
// connection failure is set to three").
//
// A broadcast delivers one payload from an origin node to a set of target
// nodes. A delivery to a failed node costs the sender the connect timeout
// per attempt; after the retry policy's MaxAttempts attempts the target
// is declared unreachable.
// For relay structures (ring, tree) the fault-tolerance mechanism then
// re-routes around the failed node: the ring skips it, the tree parent
// adopts the failed child's subtree.
//
// Determinism: all delivery, retry and adoption logic runs as events on
// the cluster's engine, with jitter drawn from its labeled RNG streams:
// same seed, same delivery schedule. The comm.* spans and counters
// recorded through the obs layer are passive observations and never alter
// that schedule.
package comm

import (
	"math/rand"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/fptree"
	"eslurm/internal/obs"
	"eslurm/internal/predict"
	"eslurm/internal/simnet"
)

// Result summarizes one completed broadcast.
type Result struct {
	// Delivered is the number of targets that received the payload.
	Delivered int
	// Resolved lists the delivered targets in resolution order. It is
	// populated only when Broadcaster.RecordResolved is set (the chaos
	// harness's exactly-once invariant needs identities, not just counts);
	// otherwise it stays nil and costs nothing. The list comes from the
	// broadcaster's Lists: whoever holds the Result last may Put it back.
	Resolved []cluster.NodeID
	// Unreachable lists targets that could not be reached after retries.
	Unreachable []cluster.NodeID
	// Elapsed is the time from broadcast start to the last delivery or
	// final failure determination, i.e. when the whole task resolves.
	Elapsed time.Duration
	// DeliveredElapsed is the time from broadcast start until the last
	// *successful* delivery — the "message broadcast time" the paper plots
	// (the message has reached every reachable node; timeout bookkeeping
	// for dead leaves may still be draining).
	DeliveredElapsed time.Duration
	// Messages is the total number of link messages sent, including
	// retries.
	Messages int
	// Retries is the number of retry attempts performed.
	Retries int
}

// RetryPolicy configures the per-link delivery retry loop. NewBroadcaster
// sets the paper's policy, {MaxAttempts: 3}: three immediate attempts, no
// backoff, no deadline. A zero Backoff draws nothing from "comm/retry".
type RetryPolicy struct {
	// MaxAttempts is the total number of connection attempts per link
	// (first try included). Values below 1 are treated as 1.
	MaxAttempts int
	// Backoff is the wait before the second attempt; each further attempt
	// multiplies it by backoffFactor, capped at MaxBackoff. Zero retries
	// immediately.
	Backoff time.Duration
	// MaxBackoff caps the per-attempt backoff; zero means uncapped.
	MaxBackoff time.Duration
	// JitterFrac adds a uniform random extra delay in [0, JitterFrac ×
	// backoff) to each wait, drawn from the deterministic engine stream
	// "comm/retry" — same seed, same jitter, bit for bit.
	JitterFrac float64
	// Deadline bounds one delivery chain: once a chain (attempt +
	// backoffs) has been running this long, no further attempt is made
	// and the link resolves unreachable. Zero means no deadline.
	Deadline time.Duration
}

// backoffFactor is the growth of the retry backoff per attempt.
const backoffFactor = 2

// backoff returns the wait before attempt number next (2-based: the wait
// scheduled after `next-1` failed attempts).
func (p *RetryPolicy) backoff(next int) time.Duration {
	d := p.Backoff
	for i := 2; i < next; i++ {
		d = time.Duration(float64(d) * backoffFactor)
		if p.MaxBackoff > 0 && d > p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// The per-message daemon costs every structure shares: RelayOverhead is
// the receiver-side processing cost before a relay node forwards to its
// children (gray, alive-but-slow relays pay it inflated by their slowdown
// factor), and nodeListEntryBytes is the wire overhead per participant
// carried in relay messages (the sub-nodelist).
const (
	RelayOverhead      = 200 * time.Microsecond
	nodeListEntryBytes = 16
)

// Broadcaster carries the shared mechanics (retry policy, per-message
// daemon costs, per-node connection limits) used by every structure.
type Broadcaster struct {
	Cluster *cluster.Cluster
	// Retry is the per-link delivery retry policy.
	Retry RetryPolicy
	// SendOverhead is the sender-side CPU/dispatch cost to initiate one
	// message (serialization, thread hand-off).
	SendOverhead time.Duration
	// MaxConcurrent caps simultaneous outstanding connections per sender
	// (daemon thread-pool / fd limit). Star broadcasts from one origin are
	// throttled by this; tree fan-outs (≤ width) rarely are. It is read at
	// every acquire, so set it before the first send, as rm.NewCentralized
	// does.
	MaxConcurrent int
	// RecordResolved, when set, makes every Result carry the delivered
	// targets' identities (Result.Resolved) for invariant checking.
	RecordResolved bool
	// OnResolve, when non-nil, is invoked exactly once per (broadcast,
	// target) at the virtual instant the target resolves — delivered or
	// declared unreachable. It must not schedule events.
	OnResolve func(to cluster.NodeID, ok bool)
	// Lists recycles the node lists broadcasts use: every tree's list,
	// and every Result.Resolved.
	Lists ListPool

	e        *simnet.Engine
	slots    []int32                       // connection slots in use, by sender NodeID
	waiting  map[cluster.NodeID]*waitQueue // the queue of each sender that has reached MaxConcurrent
	retryRng *rand.Rand
	in       *instruments
	spare    []*chain // released chains awaiting reuse
	made     int      // chains ever allocated
}

// instruments caches the broadcaster's registry handles so hot paths pay
// a field read, not a map lookup. Built on first use from the engine's
// registry (see simnet.Engine.Metrics).
type instruments struct {
	delivered   *obs.Counter
	unreachable *obs.Counter
	messages    *obs.Counter
	retries     *obs.Counter
	outstanding *obs.Gauge
	elapsed     *obs.Histogram
}

// broadcastElapsedBounds returns the comm.broadcast_elapsed_ns bucket
// edges: decades from 1 ms to 1000 s, covering a healthy in-rack delivery
// through a full retry-and-timeout drain. Built per call (once per
// Broadcaster) so the bounds are never package-level mutable state.
func broadcastElapsedBounds() []int64 {
	return []int64{
		int64(time.Millisecond),
		int64(10 * time.Millisecond),
		int64(100 * time.Millisecond),
		int64(time.Second),
		int64(10 * time.Second),
		int64(100 * time.Second),
		int64(1000 * time.Second),
	}
}

// inst returns the instruments, building them on first use. The build is
// a call of its own, so inst inlines into the per-message paths.
func (b *Broadcaster) inst() *instruments {
	if b.in == nil {
		b.buildInstruments()
	}
	return b.in
}

func (b *Broadcaster) buildInstruments() {
	m := b.e.Metrics()
	b.in = &instruments{
		delivered:   m.Counter("comm.delivered"),
		unreachable: m.Counter("comm.unreachable"),
		messages:    m.Counter("comm.messages"),
		retries:     m.Counter("comm.retries"),
		outstanding: m.Gauge("comm.outstanding_sends"),
		elapsed:     m.Histogram("comm.broadcast_elapsed_ns", broadcastElapsedBounds()),
	}
}

// NewBroadcaster returns a Broadcaster with the paper's defaults.
func NewBroadcaster(c *cluster.Cluster) *Broadcaster {
	b := &Broadcaster{
		Cluster:       c,
		Retry:         RetryPolicy{MaxAttempts: 3},
		SendOverhead:  30 * time.Microsecond,
		MaxConcurrent: 128,
		e:             c.Engine,
		slots:         make([]int32, c.Size()),
	}
	return b
}

// ListPool recycles node lists, so a broadcast's lists cost nothing once
// the engine has run a few. Put hands back a list its holder keeps no
// other reference to; Get reuses the smallest one large enough. Like
// everything on a Broadcaster, a pool belongs to one engine.
type ListPool struct{ free [][]cluster.NodeID }

// Get returns an empty list with room for n nodes.
func (p *ListPool) Get(n int) []cluster.NodeID {
	best := -1
	for i, l := range p.free {
		if cap(l) >= n && (best < 0 || cap(l) < cap(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]cluster.NodeID, 0, n)
	}
	l, last := p.free[best], len(p.free)-1
	p.free[best], p.free[last] = p.free[last], nil
	p.free = p.free[:last]
	return l[:0]
}

// Put hands a list back for reuse; a nil or zero-capacity list is ignored.
func (p *ListPool) Put(l []cluster.NodeID) {
	if cap(l) > 0 {
		p.free = append(p.free, l[:0])
	}
}

// waitQueue holds a saturated sender's waiting sends in items[head:], in
// dispatch order. An item is one chain, or the rest of a Star's targets,
// whose chains are made one at a time as slots free: a Star queues its
// targets in one synchronous loop, so they are one contiguous run of the
// queue, and one item keeps their order.
type waitQueue struct {
	items []waiter
	head  int
}

// waiter is one item of a waitQueue: a chain, or a star's run when c is nil.
type waiter struct {
	c    *chain
	star *starRun
}

// full reports whether from has no free connection slot.
func (b *Broadcaster) full(from cluster.NodeID) bool {
	return int(b.slots[from]) >= b.MaxConcurrent
}

// wait queues w behind from's slots, making from's queue on its first wait.
func (b *Broadcaster) wait(from cluster.NodeID, w waiter) {
	q := b.waiting[from]
	if q == nil {
		if b.waiting == nil {
			b.waiting = make(map[cluster.NodeID]*waitQueue)
		}
		q = new(waitQueue)
		b.waiting[from] = q
	}
	q.items = append(q.items, w)
}

// acquire begins c in a free slot of its sender, or queues it.
func (b *Broadcaster) acquire(c *chain) {
	from := c.sender()
	if b.full(from) {
		b.wait(from, waiter{c: c})
		return
	}
	b.slots[from]++
	c.begin()
}

// release hands from's freed slot to its longest-waiting send, or frees
// it. A popped item is cleared and a drained queue rewinds to the front
// of its array, so the queue never keeps a finished chain or star — and
// the broadcast behind it — reachable, and a sender's next burst reuses
// the array.
func (b *Broadcaster) release(from cluster.NodeID) {
	q := b.waiting[from]
	if q == nil || q.head == len(q.items) {
		b.slots[from]--
		return
	}
	w := &q.items[q.head]
	next := w.c
	if next == nil {
		next = w.star.chain()
		if w.star.waiting() {
			next.begin()
			return
		}
	}
	*w = waiter{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	next.begin()
}

// maxAttempts returns the retry policy's attempt budget.
func (b *Broadcaster) maxAttempts() int {
	return max(b.Retry.MaxAttempts, 1)
}

// retryDelay returns how long a sender waits before attempt number next
// (jitter included).
func (b *Broadcaster) retryDelay(next int) time.Duration {
	p := &b.Retry
	d := p.backoff(next)
	if p.JitterFrac > 0 && d > 0 {
		if b.retryRng == nil {
			b.retryRng = b.e.Rand("comm/retry")
		}
		if span := int64(float64(d) * p.JitterFrac); span > 0 {
			d += time.Duration(b.retryRng.Int63n(span))
		}
	}
	return d
}

// tally counts the link messages one broadcast sent: a chain adds to it
// when an attempt begins.
type tally struct{ messages, retries int }

// sink is where a delivery chain reports: what is behind the receiver and
// who wants the outcome. A broadcast has one sink shared by all its chains
// (treeCast, ringCast, binomialCast, or the tracker itself for Star), so a
// target costs no closure; resultFunc adapts a caller that thinks in a
// callback.
type sink interface {
	// landed runs when the payload first lands at the receiver.
	landed(c *chain)
	// settled runs exactly once, with true on delivery.
	settled(c *chain, ok bool)
	// relayed runs once the receiver has paid the relay cost that landed
	// asked for with chain.relay.
	relayed(c *chain)
	// freed runs when the chain goes back to its pool: the sink's last
	// sight of it.
	freed()
}

// resultFunc is the sink of a point-to-point message with nothing behind
// the receiver. A func value is pointer-shaped: the conversion to sink
// allocates nothing.
type resultFunc func(ok bool)

func (resultFunc) landed(*chain) {}

func (f resultFunc) settled(_ *chain, ok bool) { f(ok) }

func (resultFunc) relayed(*chain) {}

func (resultFunc) freed() {}

// send delivers one message with retries, occupying a connection slot of
// the sender from dispatch until resolution, and reports to h; [lo, hi) is
// the span of its broadcast's list a relay broadcast keeps on its chains
// (unused by everyone else). tl
// (may be nil) is the broadcast's tally. parent, when tracing is enabled,
// parents the delivery-chain span (comm.send) under the broadcast that
// issued it.
func (b *Broadcaster) send(from, to cluster.NodeID, size int, tl *tally, parent obs.SpanID, h sink, lo, hi int) {
	c := b.newChain()
	c.set(b, from, to, size, tl, h, lo, hi)
	b.inst().outstanding.Add(1)
	c.span = b.sendSpan(parent, from, to)
	b.acquire(c)
}

// sendSpan opens a delivery chain's comm.send span when tracing is on. The
// attributes are formatted strings: only a recording tracer pays for them.
func (b *Broadcaster) sendSpan(parent obs.SpanID, from, to cluster.NodeID) obs.SpanID {
	if tr := b.e.Tracer(); tr != nil {
		return tr.Start("comm.send", parent, obs.Int("from", int(from)), obs.Int("to", int(to)))
	}
	return 0
}

// chain is one delivery chain: a message and its retries, holding one of
// the sender's connection slots from dispatch to resolution. The engine
// schedules the chain itself (simnet.Handler, the kinds below), the wire
// reports to the chain itself (cluster.Outcome), its sender's wait queue
// may hold it, and what happens next is the sink it shares with its
// broadcast.
//
// Chains are pooled per Broadcaster, so in steady state a message
// allocates nothing here. One rule says when a chain is free: it is
// resolved (settle has run) and nothing holds it any more — no flight on
// the wire (every Transmit has had its Released) and no relay pending (a
// tree relay's event is the chain itself). A duplicate can land after
// Sent has settled the chain, which is why the wire, not the settle, has
// the last word; a settle with nothing outstanding (the deadline at the
// end of a backoff) frees the chain at once. A wait queue drops a chain
// before it begins and a sink only sees it as a call argument, so nothing
// else holds one. The fields are packed into 80 bytes, the size class of
// a live message (TestChainFitsItsSizeClass).
type chain struct {
	b        *Broadcaster
	tl       *tally
	sink     sink
	start    time.Duration // when the chain got its slot; the deadline runs from here
	span     obs.SpanID
	from, to int32 // cluster.NodeIDs: sender and receiver
	attempts int32
	size     int32
	lo, hi   int32 // a relay broadcast's span [lo, hi) of its list
	resolved bool
	arrived  bool
	inFlight bool // a Transmit has not had its Released yet
	relaying bool // a relay's event is pending
	spare    bool // on the free list: any call is a use after release
}

// newChain takes a released chain, or allocates one when none is left;
// either way every field is zero.
func (b *Broadcaster) newChain() *chain {
	k := len(b.spare) - 1
	if k < 0 {
		b.made++
		return new(chain)
	}
	c := b.spare[k]
	b.spare[k] = nil
	b.spare = b.spare[:k]
	c.spare = false
	return c
}

// set fills a new chain's message fields. A new chain is zero, so they
// are set one by one: a composite literal would be built aside and copied
// in.
func (c *chain) set(b *Broadcaster, from, to cluster.NodeID, size int, tl *tally, h sink, lo, hi int) {
	c.b, c.from, c.to, c.size, c.tl, c.sink, c.lo, c.hi = b, int32(from), int32(to), int32(size), tl, h, int32(lo), int32(hi)
}

// sender and receiver return the chain's endpoints.
func (c *chain) sender() cluster.NodeID { return cluster.NodeID(c.from) }

func (c *chain) receiver() cluster.NodeID { return cluster.NodeID(c.to) }

// freeIfDone returns the chain to the free list once it is resolved and
// nothing holds it. Clearing it drops the sink and the tally, so a free
// chain keeps no broadcast alive.
func (c *chain) freeIfDone() {
	if !c.resolved || c.inFlight || c.relaying {
		return
	}
	b, sink := c.b, c.sink
	*c = chain{spare: true}
	b.spare = append(b.spare, c)
	sink.freed()
}

// live panics on a released chain: a flight or an event that outlived the
// chain's release would otherwise act on whatever broadcast reuses it.
func (c *chain) live() {
	if c.spare {
		panic("comm: a delivery chain was used after its release")
	}
}

// The events of a chain.
const (
	chainTransmit     int32 = iota // SendOverhead paid: put the message on the wire
	chainAfterBackoff              // the retry backoff ran out
	chainRelay                     // the receiver paid its relay cost
)

// HandleEvent implements simnet.Handler.
func (c *chain) HandleEvent(kind int32) {
	c.live()
	switch kind {
	case chainTransmit:
		c.inFlight = true
		c.b.Cluster.Net.Transmit(c.sender(), c.receiver(), int(c.size), c)
	case chainAfterBackoff:
		c.afterBackoff()
	case chainRelay:
		c.relaying = false
		c.sink.relayed(c)
		c.freeIfDone()
	}
}

// begin runs once the sender has a free connection slot.
func (c *chain) begin() {
	c.start = c.b.e.Now()
	c.attempt()
}

func (c *chain) attempt() {
	b, in := c.b, c.b.inst()
	c.attempts++
	in.messages.Inc()
	if c.tl != nil {
		c.tl.messages++
	}
	if c.attempts > 1 {
		in.retries.Inc()
		if c.tl != nil {
			c.tl.retries++
		}
		if tr := b.e.Tracer(); tr != nil {
			tr.Instant("comm.retry", c.span, obs.Int("attempt", int(c.attempts)))
		}
	}
	b.Cluster.Meter(c.sender()).ChargeCPU(b.SendOverhead)
	// The lane of the current SendOverhead: callers may set it after
	// NewBroadcaster.
	b.e.Lane(b.SendOverhead).After(c, chainTransmit)
}

// Arrived implements cluster.Outcome. It runs at every landing of the
// payload; only the first counts, so a relay forwards once under
// duplication (NetConfig.DupProb).
func (c *chain) Arrived() {
	c.live()
	if !c.arrived {
		c.arrived = true
		c.sink.landed(c)
	}
}

// Sent implements cluster.Outcome.
func (c *chain) Sent() {
	c.live()
	if !c.resolved {
		c.settle(true)
	}
}

// Failed implements cluster.Outcome: one attempt timed out.
func (c *chain) Failed() {
	c.live()
	if c.resolved {
		return
	}
	b := c.b
	if int(c.attempts) >= b.maxAttempts() || c.pastDeadline() {
		c.settle(false)
		return
	}
	if d := b.retryDelay(int(c.attempts) + 1); d > 0 {
		b.e.AfterTo(d, c, chainAfterBackoff)
		return
	}
	c.attempt()
}

// afterBackoff re-checks the deadline when the backoff timer fires: a
// Deadline expiring mid-backoff must resolve the chain (exactly once, via
// the resolved guard) rather than launch an attempt past the documented
// budget.
func (c *chain) afterBackoff() {
	switch {
	case c.resolved:
	case c.pastDeadline():
		c.settle(false)
	default:
		c.attempt()
	}
}

func (c *chain) settle(ok bool) {
	c.resolved = true
	c.b.inst().outstanding.Add(-1)
	tr := c.b.e.Tracer()
	tr.SetAttrInt(c.span, "attempts", int(c.attempts))
	if !ok {
		tr.SetAttr(c.span, "ok", "false")
	}
	tr.End(c.span)
	c.b.release(c.sender())
	c.sink.settled(c, ok)
	c.freeIfDone()
}

// Released implements cluster.Outcome: the wire has run the last callback
// of the chain's latest flight.
func (c *chain) Released() {
	c.live()
	c.inFlight = false
	c.freeIfDone()
}

// relay has the receiver pay its relay cost, then hands the chain back to
// its sink (relayed). The chain is held until then.
func (c *chain) relay() {
	c.relaying = true
	c.b.relayTo(c.receiver(), c, chainRelay)
}

// pastDeadline reports whether the chain has exhausted the policy's
// per-chain deadline.
func (c *chain) pastDeadline() bool {
	r := &c.b.Retry
	return r.Deadline > 0 && c.b.e.Now()-c.start >= r.Deadline
}

// OutstandingSends returns the number of messages not yet resolved
// (holding or waiting for a connection slot) across all senders.
// Zero means the communication layer is fully drained — a teardown
// invariant the chaos harness checks. The count is the registry gauge
// comm.outstanding_sends.
func (b *Broadcaster) OutstandingSends() int {
	if b.in == nil { // a broadcaster that never sent has none
		return 0
	}
	return int(b.in.outstanding.Value())
}

// relayDelay returns the relay processing cost at a node: RelayOverhead,
// inflated by the node's gray-failure factor when it is degraded.
func (b *Broadcaster) relayDelay(id cluster.NodeID) time.Duration {
	g := b.Cluster.Net.GrayFactor(id)
	if g <= 1 {
		return RelayOverhead
	}
	return time.Duration(float64(RelayOverhead) * g)
}

// relayTo charges id's relay cost and sends the event (h, kind) once it
// has been paid. A healthy relay's cost is RelayOverhead, whose events
// share one lane; a gray relay's inflated cost goes on the heap.
func (b *Broadcaster) relayTo(id cluster.NodeID, h simnet.Handler, kind int32) {
	d := b.relayDelay(id)
	b.Cluster.Meter(id).ChargeCPU(d)
	if d == RelayOverhead {
		b.e.Lane(RelayOverhead).After(h, kind)
		return
	}
	b.e.AfterTo(d, h, kind)
}

// Send delivers one point-to-point message with the broadcaster's retry
// policy, outside of any broadcast. cb runs with true on delivery, false
// once all attempts are exhausted. Used by the master
// daemon for master↔satellite task hand-offs and heartbeats. The
// delivery-chain span, if tracing is on, is parented under parent (0: a
// root).
func (b *Broadcaster) Send(from, to cluster.NodeID, size int, parent obs.SpanID, cb func(ok bool)) {
	b.send(from, to, size, nil, parent, resultFunc(cb), 0, 0)
}

// tracker counts outstanding deliveries and finalizes the Result. It also
// owns the broadcast's root span (comm.broadcast) and feeds the registry's
// delivery counters and latency histogram.
type tracker struct {
	b       *Broadcaster
	span    obs.SpanID
	start   time.Duration
	pending int
	tally   tally
	res     Result
	done    func(Result)
}

// newTracker opens the broadcast's root span under parent (0: a root).
func newTracker(b *Broadcaster, structure string, parent obs.SpanID, pending int, done func(Result)) *tracker {
	t := &tracker{b: b, start: b.e.Now(), pending: pending, done: done}
	if b.RecordResolved {
		t.res.Resolved = b.Lists.Get(pending)
	}
	// The attributes are formatted strings: only a recording tracer pays
	// for them.
	if tr := b.e.Tracer(); tr != nil {
		t.span = tr.Start("comm.broadcast", parent,
			obs.String("structure", structure), obs.Int("targets", pending))
	}
	if pending == 0 {
		t.finish()
	}
	return t
}

// send runs one of the broadcast's delivery chains (see Broadcaster.send).
func (t *tracker) send(from, to cluster.NodeID, size int, h sink, lo, hi int) {
	t.b.send(from, to, size, &t.tally, t.span, h, lo, hi)
}

// landed and settled make the tracker the sink of a direct delivery with
// nothing behind the receiver (Star): the chain's outcome is the target's.
func (t *tracker) landed(*chain) {}

func (t *tracker) settled(c *chain, ok bool) { t.settle(c.receiver(), ok) }

func (t *tracker) relayed(*chain) {}

func (t *tracker) freed() {}

// adopted records a comm.adopt instant: the sender takes over the children
// of a relay it could not reach.
func (t *tracker) adopted(failed cluster.NodeID, children int) {
	if tr := t.b.e.Tracer(); tr != nil {
		tr.Instant("comm.adopt", t.span, obs.Int("failed", int(failed)), obs.Int("children", children))
	}
}

// settle books one target's outcome, reached now.
func (t *tracker) settle(id cluster.NodeID, ok bool) {
	if t.b.OnResolve != nil {
		t.b.OnResolve(id, ok)
	}
	if ok {
		t.res.Delivered++
		t.b.inst().delivered.Inc()
		if t.b.RecordResolved {
			t.res.Resolved = append(t.res.Resolved, id)
		}
		if d := t.b.e.Now() - t.start; d > t.res.DeliveredElapsed {
			t.res.DeliveredElapsed = d
		}
	} else {
		t.res.Unreachable = append(t.res.Unreachable, id)
		t.b.inst().unreachable.Inc()
	}
	t.pending--
	if t.pending == 0 {
		t.finish()
	}
}

func (t *tracker) finish() {
	t.res.Messages, t.res.Retries = t.tally.messages, t.tally.retries
	t.res.Elapsed = t.b.e.Now() - t.start
	t.b.inst().elapsed.Observe(int64(t.res.Elapsed))
	if tr := t.b.e.Tracer(); tr != nil {
		tr.SetAttrInt(t.span, "delivered", t.res.Delivered)
		tr.SetAttrInt(t.span, "unreachable", len(t.res.Unreachable))
		tr.End(t.span)
	}
	if t.done != nil {
		t.done(t.res)
	}
}

// Structure is one broadcast topology.
type Structure interface {
	// Name identifies the structure in experiment output.
	Name() string
	// Broadcast delivers size payload bytes from origin to targets and
	// invokes done exactly once with the outcome. The targets slice is not
	// retained.
	Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result))
}

// ---------------------------------------------------------------------------
// Star: the origin contacts every target directly (a centralized master's
// broadcast). Bounded by the origin's MaxConcurrent slots: failures hold
// slots for retries × timeout, so broadcast time grows with failure count.

// Star broadcasts directly from the origin to all targets.
type Star struct{}

// Name returns "star".
func (Star) Name() string { return "star" }

// Broadcast implements Structure. It sends while the origin has free
// slots; the rest of the targets wait in the origin's queue as one
// starRun, and each gets its chain only when a slot frees for it.
func (Star) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	t := newTracker(b, "star", 0, len(targets), done)
	for i, id := range targets {
		if b.full(origin) {
			b.wait(origin, waiter{star: newStarRun(t, origin, targets[i:], size)})
			return
		}
		t.send(origin, id, size, t, 0, 0)
	}
}

// starRun is the part of a Star that waits for its origin's slots: the
// targets not yet sent, in order, from the broadcaster's Lists. They are
// outstanding sends from dispatch, and a recording tracer opens their
// comm.send spans then too, as it does for a chain that waits.
type starRun struct {
	t     *tracker
	from  cluster.NodeID
	size  int
	list  []cluster.NodeID
	spans []obs.SpanID // list[i]'s comm.send span; nil when not tracing
	next  int          // list[next:] still wait
}

func newStarRun(t *tracker, from cluster.NodeID, targets []cluster.NodeID, size int) *starRun {
	b := t.b
	r := &starRun{t: t, from: from, size: size, list: append(b.Lists.Get(len(targets)), targets...)}
	b.inst().outstanding.Add(int64(len(targets)))
	if b.e.Tracer() != nil {
		r.spans = make([]obs.SpanID, len(targets))
		for i, id := range targets {
			r.spans[i] = b.sendSpan(t.span, from, id)
		}
	}
	return r
}

// chain makes the next waiting target's chain; once none waits, the list
// goes back to the broadcaster's Lists.
func (r *starRun) chain() *chain {
	b := r.t.b
	c := b.newChain()
	c.set(b, r.from, r.list[r.next], r.size, &r.t.tally, r.t, 0, 0)
	if r.spans != nil {
		c.span = r.spans[r.next]
	}
	r.next++
	if !r.waiting() {
		b.Lists.Put(r.list)
		r.list, r.spans = nil, nil
	}
	return c
}

// waiting reports whether a target still waits for a slot.
func (r *starRun) waiting() bool { return r.next < len(r.list) }

// ---------------------------------------------------------------------------
// Ring: the message travels target-to-target in list order. A failed node
// is skipped after retries; its successor is contacted by the predecessor.

// Ring broadcasts by relaying along the target list.
type Ring struct{}

// Name returns "ring".
func (Ring) Name() string { return "ring" }

// Broadcast implements Structure.
func (Ring) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	rc := &ringCast{listCast{t: newTracker(b, "ring", 0, len(targets), done),
		list: append(b.Lists.Get(len(targets)), targets...), size: size}}
	rc.hop(origin, 0)
	rc.release()
}

// ringCast is one ring broadcast: the sink every one of its chains shares.
// A chain keeps its hop's index in the list as chain.lo and is its relay's
// event, so a hop costs nothing but its pooled chain.
type ringCast struct{ listCast }

// hop sends the payload from from to the idx-th target: the relay message
// carries the remaining list.
func (rc *ringCast) hop(from cluster.NodeID, idx int) {
	if idx < len(rc.list) {
		rc.send(from, rc.list[idx], len(rc.list)-idx, rc, idx, idx+1)
	}
}

// landed makes every target relay, the last one included.
func (rc *ringCast) landed(c *chain) { c.relay() }

// relayed forwards to the next target once the relay cost is paid.
func (rc *ringCast) relayed(c *chain) { rc.hop(c.receiver(), int(c.lo)+1) }

func (rc *ringCast) settled(c *chain, ok bool) {
	rc.t.settle(c.receiver(), ok)
	if !ok {
		// Skip the dead node: the same sender tries its successor.
		rc.hop(c.sender(), int(c.lo)+1)
	}
}

// ---------------------------------------------------------------------------
// SharedMem: the origin publishes the payload to a shared-memory service
// and every target fetches it. The service processes fetches sequentially,
// so broadcast time is ~n × service time, nearly independent of failures
// (failed nodes simply never fetch).

// SharedMem broadcasts via a publish/fetch shared-memory service hosted on
// the origin.
type SharedMem struct{}

// sharedMemServiceTime is the per-fetch handling cost at the service,
// calibrated so a 4K-node fetch storm drains in a few seconds as in
// Fig. 8b.
const sharedMemServiceTime = 1200 * time.Microsecond

// Name returns "sharedmem".
func (SharedMem) Name() string { return "sharedmem" }

// Broadcast implements Structure.
func (SharedMem) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	t := newTracker(b, "sharedmem", 0, len(targets), done)
	sc := &sharedMemCast{t: t, list: append(b.Lists.Get(len(targets)), targets...),
		timeout: b.Cluster.Net.Config().ConnectTimeout}
	// Publish: one write into the shared segment.
	b.Cluster.Meter(origin).ChargeCPU(b.SendOverhead)
	queue := time.Duration(0)
	for i, id := range sc.list {
		if b.Cluster.Node(id).Failed() {
			// A failed node never issues its fetch; the service notices
			// the missing ack after its timeout when collecting results.
			b.e.AfterTo(sc.timeout, sc, int32(^i))
			continue
		}
		queue += sharedMemServiceTime
		delay := queue + b.Cluster.Net.TransferTime(size)
		t.tally.messages++
		b.inst().messages.Inc()
		b.e.AfterTo(delay, sc, int32(i))
	}
	if len(sc.list) == 0 {
		b.Lists.Put(sc.list)
	}
}

// sharedMemCast is one shared-memory broadcast: the handler of all its
// events. Kind i ≥ 0 is the i-th target's fetch, kind ^i (negative) the
// service noticing that target's missing ack, so a target costs no
// closure. The list goes back to the broadcaster's Lists once every
// target has settled.
type sharedMemCast struct {
	t       *tracker
	list    []cluster.NodeID
	timeout time.Duration
}

// HandleEvent implements simnet.Handler.
func (sc *sharedMemCast) HandleEvent(kind int32) {
	if kind < 0 {
		sc.settle(sc.list[^kind], false)
		return
	}
	b, id := sc.t.b, sc.list[kind]
	// The node may have failed while queued behind earlier fetches (a
	// mid-broadcast failure): its fetch never happens and the service
	// notices the missing ack after its timeout.
	if b.Cluster.Node(id).Failed() {
		b.e.AfterTo(sc.timeout, sc, ^kind)
		return
	}
	b.Cluster.Meter(id).CountMessage(false)
	sc.settle(id, true)
}

func (sc *sharedMemCast) settle(id cluster.NodeID, ok bool) {
	sc.t.settle(id, ok)
	if sc.t.pending == 0 {
		sc.t.b.Lists.Put(sc.list)
	}
}

// ---------------------------------------------------------------------------
// KTree: classic k-ary relay tree over the target list order. A failed
// interior node's parent adopts its children after retries — the expensive
// re-routing that FP-Tree avoids.

// KTree broadcasts over a width-W relay tree built from the list order.
type KTree struct {
	// Width is the tree fan-out; zero takes fptree.DefaultWidth.
	Width int
}

// Name returns "tree".
func (KTree) Name() string { return "tree" }

func (k KTree) width() int {
	if k.Width == 0 {
		return fptree.DefaultWidth
	}
	return k.Width
}

// Broadcast implements Structure.
func (k KTree) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	trc := b.e.Tracer()
	var span obs.SpanID
	if trc != nil {
		span = trc.Start("fptree.build", 0,
			obs.Int("targets", len(targets)), obs.Int("width", k.width()))
	}
	list := append(b.Lists.Get(len(targets)), targets...)
	tr := fptree.Build(list, k.width())
	trc.End(span)
	broadcastTree(b, "tree", 0, origin, list, tr, size, done)
}

// broadcastTree relays a payload down tr, the tree over list, with
// parent-adoption fault tolerance. The tree is only read once built, and
// list goes back to b.Lists once the last of the broadcast's chains is
// freed: no event, flight or relay can read the tree after that.
func broadcastTree(b *Broadcaster, structure string, parent obs.SpanID, origin cluster.NodeID, list []cluster.NodeID, tr *fptree.Tree[cluster.NodeID], size int, done func(Result)) {
	tc := &treeCast{listCast{t: newTracker(b, structure, parent, tr.Size(), done), list: list, size: size}, tr}
	for g := tr.Roots(); g.Next(); {
		tc.dispatch(origin, g.Lo, g.Hi)
	}
	tc.release()
}

// listCast is what every relay broadcast (tree, ring, binomial) keeps: its
// tracker, its list from the broadcaster's Lists, the payload size and the
// number of chains sent and not yet freed. A chain's successors are sent
// before it is freed (by its relay, or by its sender's fault tolerance),
// so the count reaches zero only when every target is settled, and the
// list goes back then.
type listCast struct {
	t    *tracker
	list []cluster.NodeID
	size int
	live int
}

// send sends one of the broadcast's chains, reporting to h, with [lo, hi)
// on the chain; the message carries entries node-list entries.
func (lc *listCast) send(from, to cluster.NodeID, entries int, h sink, lo, hi int) {
	lc.live++
	lc.t.send(from, to, lc.size+entries*nodeListEntryBytes, h, lo, hi)
}

// release returns the list once no chain is live: at the end of a
// broadcast that sent nothing, or when the last chain is freed.
func (lc *listCast) release() {
	if lc.live == 0 {
		lc.t.b.Lists.Put(lc.list)
	}
}

func (lc *listCast) freed() {
	lc.live--
	lc.release()
}

// treeCast is one tree broadcast: the sink every one of its chains shares.
// A chain carries its own subtree (chain.lo, chain.hi) and is its relay's
// event, so a target costs nothing but its pooled chain.
type treeCast struct {
	listCast
	tr *fptree.Tree[cluster.NodeID]
}

// dispatch sends the subtree [lo, hi) its payload from from: the message
// carries the subtree's node list.
func (tc *treeCast) dispatch(from cluster.NodeID, lo, hi int) {
	tc.send(from, tc.tr.At(lo), hi-lo, tc, lo, hi)
}

// landed makes an interior node relay to its children.
func (tc *treeCast) landed(c *chain) {
	if c.hi-c.lo > 1 {
		c.relay()
	}
}

// relayed forwards to the children once the relay cost is paid.
func (tc *treeCast) relayed(c *chain) {
	for g := tc.tr.Children(int(c.lo), int(c.hi)); g.Next(); {
		tc.dispatch(c.receiver(), g.Lo, g.Hi)
	}
}

func (tc *treeCast) settled(c *chain, ok bool) {
	from, to, lo, hi := c.sender(), c.receiver(), int(c.lo), int(c.hi)
	tc.t.settle(to, ok)
	if ok {
		return
	}
	// Fault tolerance: the parent adopts the failed child's children and
	// contacts them directly.
	if hi-lo > 1 {
		tc.t.adopted(to, tc.tr.Fanout(lo, hi))
	}
	for g := tc.tr.Children(lo, hi); g.Next(); {
		tc.dispatch(from, g.Lo, g.Hi)
	}
}

// ---------------------------------------------------------------------------
// FPTree: the paper's structure — rearrange the list so predicted-failed
// nodes are leaves, then broadcast over the k-ary tree.

// FPTree broadcasts over the failure-prediction-rearranged relay tree.
type FPTree struct {
	// Width is the tree fan-out; zero takes fptree.DefaultWidth.
	Width int
	// Predictor supplies the predicted-failed set; nil behaves like
	// predict.Null (plain tree).
	Predictor predict.Predictor
	// Stats, when non-nil, accumulates placement statistics for the
	// FP-Tree placement experiment (§VII-A).
	Stats *PlacementStats
	// Parent, when non-zero, parents the broadcast's spans (fptree.plan,
	// fptree.build, comm.broadcast): the master sets it to the task or
	// broadcast span the relay serves. Zero makes them roots.
	Parent obs.SpanID
}

// PlacementStats accumulates how many actually-failed nodes the FP-Tree
// proactively identified — predicted at construction time and therefore
// deliberately placed at leaf positions (the paper reports 81.7%). A
// failed node that merely lands on a leaf by chance (most slots of a wide
// tree are leaves) does not count: the statistic measures the prediction
// pipeline, not slot geometry.
type PlacementStats struct {
	TreesBuilt        int
	NodesTotal        int
	FailedEncountered int
	FailedAtLeaves    int
}

// LeafPlacementRatio returns FailedAtLeaves / FailedEncountered.
func (p *PlacementStats) LeafPlacementRatio() float64 {
	if p.FailedEncountered == 0 {
		return 0
	}
	return float64(p.FailedAtLeaves) / float64(p.FailedEncountered)
}

// Name returns "fptree".
func (FPTree) Name() string { return "fptree" }

func (f FPTree) width() int {
	if f.Width == 0 {
		return fptree.DefaultWidth
	}
	return f.Width
}

// predictor returns the predictor in use: Predictor, or predict.Null.
func (f FPTree) predictor() predict.Predictor {
	if f.Predictor == nil {
		return predict.Null{}
	}
	return f.Predictor
}

// Broadcast implements Structure.
func (f FPTree) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	pred := f.predictor()
	trc := b.e.Tracer()
	var span obs.SpanID
	if trc != nil {
		span = trc.Start("fptree.plan", f.Parent,
			obs.Int("targets", len(targets)), obs.Int("width", f.width()))
	}
	list := fptree.AppendRearranged(b.Lists.Get(len(targets)), targets, pred.Predicted, f.width())
	trc.End(span)
	if trc != nil {
		span = trc.Start("fptree.build", f.Parent, obs.Int("targets", len(list)))
	}
	tr := fptree.Build(list, f.width())
	trc.End(span)
	if f.Stats != nil {
		f.Stats.TreesBuilt++
		f.Stats.NodesTotal += len(list)
		tr.Walk(func(id cluster.NodeID, _ int, leaf bool) {
			if b.Cluster.Node(id).Failed() {
				f.Stats.FailedEncountered++
				if leaf && pred.Predicted(id) {
					f.Stats.FailedAtLeaves++
				}
			}
		})
	}
	broadcastTree(b, "fptree", f.Parent, origin, list, tr, size, done)
}

// ---------------------------------------------------------------------------
// Binomial: the classic MPI broadcast tree. In round k, every node that
// already holds the message forwards it to one new peer, so delivery takes
// ⌈log2 n⌉ rounds with at most one outstanding send per holder. Included
// as the standard message-passing baseline alongside the paper's four
// structures; like the plain k-ary tree, a failed interior node stalls the
// whole block it was responsible for until the timeout.

// Binomial broadcasts over a binomial tree built from the target order.
type Binomial struct{}

// Name returns "binomial".
func (Binomial) Name() string { return "binomial" }

// Broadcast implements Structure.
func (Binomial) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	bc := &binomialCast{listCast{t: newTracker(b, "binomial", 0, len(targets), done),
		list: append(b.Lists.Get(len(targets)), targets...), size: size}}
	bc.deliver(origin, 0, len(bc.list))
	bc.release()
}

// binomialCast is one binomial broadcast: the sink every one of its chains
// shares. A chain carries the block [lo, hi) its receiver heads and is its
// relay's event.
type binomialCast struct{ listCast }

// deliver makes holder (origin for the root call, otherwise the owner of
// list[lo-1]) responsible for delivering list[lo:hi). It sends to the
// block's head, which on landing takes the upper half, while the holder
// recurses on the lower half once the send settles — the standard
// binomial recursion.
func (bc *binomialCast) deliver(holder cluster.NodeID, lo, hi int) {
	if lo < hi {
		bc.send(holder, bc.list[lo], hi-lo, bc, lo, hi)
	}
}

// binomialMid splits the block [lo, hi) behind its head: the head takes
// [mid, hi), the holder keeps [lo+1, mid).
func binomialMid(lo, hi int) int { return lo + 1 + (hi-lo-1)/2 }

// landed makes every head relay, whether or not it has a half to take.
func (bc *binomialCast) landed(c *chain) { c.relay() }

// relayed has the head deliver the upper half once its relay cost is paid.
func (bc *binomialCast) relayed(c *chain) {
	lo, hi := int(c.lo), int(c.hi)
	bc.deliver(c.receiver(), binomialMid(lo, hi), hi)
}

func (bc *binomialCast) settled(c *chain, ok bool) {
	holder, head, lo, hi := c.sender(), c.receiver(), int(c.lo), int(c.hi)
	mid := binomialMid(lo, hi)
	bc.t.settle(head, ok)
	if !ok {
		// Fault tolerance: the holder keeps both halves.
		if hi-lo > 1 {
			bc.t.adopted(head, hi-lo-1)
		}
		bc.deliver(holder, mid, hi)
	}
	bc.deliver(holder, lo+1, mid)
}
