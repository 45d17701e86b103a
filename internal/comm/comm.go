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
// per attempt; after Retries attempts the target is declared unreachable.
// For relay structures (ring, tree) the fault-tolerance mechanism then
// re-routes around the failed node: the ring skips it, the tree parent
// adopts the failed child's subtree.
//
// Determinism: all delivery, retry and adoption logic runs as events on
// the broadcaster's engine, with backoff jitter drawn from labeled RNG
// streams — same seed, same delivery schedule. The comm.* spans and
// counters recorded through the obs layer are passive observations and
// never alter that schedule.
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
	// otherwise it stays nil and costs nothing.
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

// RetryPolicy configures the per-link delivery retry loop. The zero
// policy is not meaningful; a nil *RetryPolicy on the Broadcaster selects
// the paper's fixed-count immediate-retry behaviour (Broadcaster.Retries
// attempts, no backoff), which is also what every existing experiment
// uses — the policy is strictly additive to the recorded traces.
type RetryPolicy struct {
	// MaxAttempts is the total number of connection attempts per link
	// (first try included). Values below 1 are treated as 1.
	MaxAttempts int
	// Backoff is the wait before the second attempt; each further attempt
	// multiplies it by BackoffFactor (default 2), capped at MaxBackoff.
	Backoff time.Duration
	// BackoffFactor is the exponential growth factor (values below 1 are
	// treated as the default 2).
	BackoffFactor float64
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

// backoff returns the wait before attempt number next (2-based: the wait
// scheduled after `next-1` failed attempts).
func (p *RetryPolicy) backoff(next int) time.Duration {
	d := p.Backoff
	f := p.BackoffFactor
	if f < 1 {
		f = 2
	}
	for i := 2; i < next; i++ {
		d = time.Duration(float64(d) * f)
		if p.MaxBackoff > 0 && d > p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// Broadcaster carries the shared mechanics (retry policy, per-message
// daemon costs, per-node connection limits) used by every structure.
type Broadcaster struct {
	Cluster *cluster.Cluster
	// Retries is the number of connection attempts per link (paper: 3),
	// retried immediately. Ignored when Retry is set.
	Retries int
	// Retry, when non-nil, replaces the fixed immediate-retry loop with
	// exponential backoff, deterministic jitter and a per-chain deadline.
	Retry *RetryPolicy
	// SendOverhead is the sender-side CPU/dispatch cost to initiate one
	// message (serialization, thread hand-off).
	SendOverhead time.Duration
	// RelayOverhead is the receiver-side processing cost before a relay
	// node forwards to its children. Gray (alive-but-slow) relays pay
	// this inflated by their slowdown factor.
	RelayOverhead time.Duration
	// MaxConcurrent caps simultaneous outstanding connections per sender
	// (daemon thread-pool / fd limit). Star broadcasts from one origin are
	// throttled by this; tree fan-outs (≤ width) rarely are.
	MaxConcurrent int
	// PerNodeListBytes is the wire overhead per participant carried in
	// relay messages (the sub-nodelist).
	PerNodeListBytes int
	// RecordResolved, when set, makes every Result carry the delivered
	// targets' identities (Result.Resolved) for invariant checking.
	RecordResolved bool
	// OnResolve, when non-nil, is invoked exactly once per (broadcast,
	// target) at the virtual instant the target resolves — delivered or
	// declared unreachable. It must not schedule events.
	OnResolve func(to cluster.NodeID, ok bool)
	// SpanParent, when non-zero, parents the *next* broadcast's root
	// span: the master sets it immediately before handing a sub-list to
	// a Structure (which builds its tracker synchronously), and the
	// tracker consumes and clears it. Zero — the default — makes
	// broadcast spans roots.
	SpanParent obs.SpanID

	limiters map[cluster.NodeID]*limiter
	retryRng *rand.Rand
	in       *instruments
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

func (b *Broadcaster) inst() *instruments {
	if b.in == nil {
		m := b.engine().Metrics()
		b.in = &instruments{
			delivered:   m.Counter("comm.delivered"),
			unreachable: m.Counter("comm.unreachable"),
			messages:    m.Counter("comm.messages"),
			retries:     m.Counter("comm.retries"),
			outstanding: m.Gauge("comm.outstanding_sends"),
			elapsed:     m.Histogram("comm.broadcast_elapsed_ns", broadcastElapsedBounds()),
		}
	}
	return b.in
}

// NewBroadcaster returns a Broadcaster with the paper's defaults.
func NewBroadcaster(c *cluster.Cluster) *Broadcaster {
	return &Broadcaster{
		Cluster:          c,
		Retries:          3,
		SendOverhead:     30 * time.Microsecond,
		RelayOverhead:    200 * time.Microsecond,
		MaxConcurrent:    128,
		PerNodeListBytes: 16,
		limiters:         make(map[cluster.NodeID]*limiter),
	}
}

func (b *Broadcaster) engine() *simnet.Engine { return b.Cluster.Engine }

// limiter serializes access to a sender's connection slots.
type limiter struct {
	max   int
	inUse int
	queue []func()
}

func (b *Broadcaster) limiter(id cluster.NodeID) *limiter {
	l, ok := b.limiters[id]
	if !ok {
		l = &limiter{max: b.MaxConcurrent}
		b.limiters[id] = l
	}
	return l
}

func (l *limiter) acquire(fn func()) {
	if l.inUse < l.max {
		l.inUse++
		fn()
		return
	}
	l.queue = append(l.queue, fn)
}

func (l *limiter) release() {
	if len(l.queue) > 0 {
		next := l.queue[0]
		l.queue = l.queue[1:]
		next()
		return
	}
	l.inUse--
}

// maxAttempts returns the attempt budget of the active retry policy.
func (b *Broadcaster) maxAttempts() int {
	if b.Retry != nil {
		if b.Retry.MaxAttempts < 1 {
			return 1
		}
		return b.Retry.MaxAttempts
	}
	return b.Retries
}

// retryDelay returns how long to wait before attempt number next (jitter
// included). The fixed-count legacy policy retries immediately.
func (b *Broadcaster) retryDelay(next int) time.Duration {
	p := b.Retry
	if p == nil {
		return 0
	}
	d := p.backoff(next)
	if p.JitterFrac > 0 && d > 0 {
		if b.retryRng == nil {
			b.retryRng = b.engine().Rand("comm/retry")
		}
		if span := int64(float64(d) * p.JitterFrac); span > 0 {
			d += time.Duration(b.retryRng.Int63n(span))
		}
	}
	return d
}

// send delivers one message with retries, occupying a connection slot of
// the sender from dispatch until resolution. cb receives true on delivery,
// exactly once: duplicated deliveries (NetConfig.DupProb) are deduplicated
// here, so Delivered never double-counts a target. parent, when tracing
// is enabled, parents the delivery-chain span (comm.send) under the
// broadcast that issued it.
func (b *Broadcaster) send(from, to cluster.NodeID, size int, res *Result, parent obs.SpanID, cb func(ok bool)) {
	c := &chain{b: b, lim: b.limiter(from), from: from, to: to, size: size, res: res, cb: cb}
	b.inst().outstanding.Add(1)
	// The attributes are formatted strings: only a recording tracer pays
	// for them.
	if tr := b.engine().Tracer(); tr != nil {
		c.span = tr.Start("comm.send", parent, obs.Int("from", int(from)), obs.Int("to", int(to)))
	}
	c.lim.acquire(c.begin)
}

// chain is one delivery chain: a message and its retries, holding one of
// the sender's connection slots from dispatch to resolution. All of a
// chain's state lives in this one object and the callbacks it hands to
// the engine and the network are its own methods, so the per-message
// path allocates this object and a few method values, nothing larger: the
// soaks send millions of messages and their wall time follows the
// garbage they make.
type chain struct {
	b        *Broadcaster
	lim      *limiter
	from, to cluster.NodeID
	size     int
	res      *Result
	span     obs.SpanID
	cb       func(ok bool)

	attempts int
	resolved bool
	start    time.Duration // when the chain got its slot; the deadline runs from here
}

// begin runs once the sender has a free connection slot.
func (c *chain) begin() {
	c.start = c.b.engine().Now()
	c.attempt()
}

func (c *chain) attempt() {
	b, in := c.b, c.b.inst()
	c.attempts++
	c.res.Messages++
	in.messages.Inc()
	if c.attempts > 1 {
		c.res.Retries++
		in.retries.Inc()
		b.engine().Tracer().Instant("comm.retry", c.span, obs.Int("attempt", c.attempts))
	}
	b.Cluster.Node(c.from).Meter.ChargeCPU(b.SendOverhead)
	b.engine().After(b.SendOverhead, c.transmit)
}

func (c *chain) transmit() {
	c.b.Cluster.Net.Send(c.from, c.to, c.size, c.delivered, c.failed)
}

// delivered may fire twice for one attempt (NetConfig.DupProb) and
// after the chain has already resolved; only the first resolution counts.
func (c *chain) delivered() {
	if !c.resolved {
		c.settle(true)
	}
}

func (c *chain) failed() {
	if c.resolved {
		return
	}
	b := c.b
	if c.attempts >= b.maxAttempts() || b.pastDeadline(c.start) {
		c.settle(false)
		return
	}
	if d := b.retryDelay(c.attempts + 1); d > 0 {
		b.engine().After(d, c.afterBackoff)
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
	case c.b.pastDeadline(c.start):
		c.settle(false)
	default:
		c.attempt()
	}
}

func (c *chain) settle(ok bool) {
	c.resolved = true
	c.b.inst().outstanding.Add(-1)
	tr := c.b.engine().Tracer()
	tr.SetAttrInt(c.span, "attempts", c.attempts)
	if !ok {
		tr.SetAttr(c.span, "ok", "false")
	}
	tr.End(c.span)
	c.lim.release()
	c.cb(ok)
}

// pastDeadline reports whether a delivery chain begun at start has
// exhausted the policy's per-chain deadline.
func (b *Broadcaster) pastDeadline(start time.Duration) bool {
	return b.Retry != nil && b.Retry.Deadline > 0 && b.engine().Now()-start >= b.Retry.Deadline
}

// OutstandingSends returns the number of delivery chains currently in
// flight (holding or queued for a connection slot) across all senders.
// Zero means the communication layer is fully drained — a teardown
// invariant the chaos harness checks. The count lives in the registry
// gauge comm.outstanding_sends; this accessor is the back-compat view.
func (b *Broadcaster) OutstandingSends() int { return int(b.inst().outstanding.Value()) }

// relayDelay returns the relay processing cost at a node: RelayOverhead,
// inflated by the node's gray-failure factor when it is degraded.
func (b *Broadcaster) relayDelay(id cluster.NodeID) time.Duration {
	g := b.Cluster.Net.GrayFactor(id)
	if g <= 1 {
		return b.RelayOverhead
	}
	return time.Duration(float64(b.RelayOverhead) * g)
}

// Send delivers one point-to-point message with the broadcaster's retry
// policy, outside of any broadcast. cb receives true on delivery, false
// once all attempts are exhausted. Used by the master daemon for
// master↔satellite task hand-offs and heartbeats. The delivery-chain
// span, if tracing is on, is parented under the consumed SpanParent.
func (b *Broadcaster) Send(from, to cluster.NodeID, size int, cb func(ok bool)) {
	var scratch Result
	parent := b.SpanParent
	b.SpanParent = 0
	b.send(from, to, size, &scratch, parent, cb)
}

// tracker counts outstanding deliveries and finalizes the Result. It
// also owns the broadcast's root span (comm.broadcast) and feeds the
// registry's delivery counters and latency histogram.
type tracker struct {
	b       *Broadcaster
	engine  *simnet.Engine
	start   time.Duration
	pending int
	res     Result
	done    func(Result)
	span    obs.SpanID
}

func newTracker(b *Broadcaster, structure string, pending int, done func(Result)) *tracker {
	e := b.engine()
	t := &tracker{b: b, engine: e, start: e.Now(), pending: pending, done: done}
	parent := b.SpanParent
	b.SpanParent = 0
	t.span = e.Tracer().Start("comm.broadcast", parent,
		obs.String("structure", structure), obs.Int("targets", pending))
	if pending == 0 {
		t.finish()
	}
	return t
}

func (t *tracker) resolve(res *Result, id cluster.NodeID, ok bool) {
	if t.b.OnResolve != nil {
		t.b.OnResolve(id, ok)
	}
	if ok {
		res.Delivered++
		t.b.inst().delivered.Inc()
		if t.b.RecordResolved {
			res.Resolved = append(res.Resolved, id)
		}
		if d := t.engine.Now() - t.start; d > res.DeliveredElapsed {
			res.DeliveredElapsed = d
		}
	} else {
		res.Unreachable = append(res.Unreachable, id)
		t.b.inst().unreachable.Inc()
	}
	t.pending--
	if t.pending == 0 {
		t.finish()
	}
}

func (t *tracker) add(n int) { t.pending += n }

func (t *tracker) finish() {
	t.res.Elapsed = t.engine.Now() - t.start
	t.b.inst().elapsed.Observe(int64(t.res.Elapsed))
	if tr := t.engine.Tracer(); tr != nil {
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

// Broadcast implements Structure.
func (Star) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	t := newTracker(b, "star", len(targets), done)
	for _, id := range targets {
		id := id
		b.send(origin, id, size, &t.res, t.span, func(ok bool) { t.resolve(&t.res, id, ok) })
	}
}

// ---------------------------------------------------------------------------
// Ring: the message travels target-to-target in list order. A failed node
// is skipped after retries; its successor is contacted by the predecessor.

// Ring broadcasts by relaying along the target list.
type Ring struct{}

// Name returns "ring".
func (Ring) Name() string { return "ring" }

// Broadcast implements Structure.
func (Ring) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	t := newTracker(b, "ring", len(targets), done)
	ids := append([]cluster.NodeID(nil), targets...)
	var hop func(from cluster.NodeID, idx int)
	hop = func(from cluster.NodeID, idx int) {
		if idx >= len(ids) {
			return
		}
		to := ids[idx]
		// The relay message carries the remaining list.
		sz := size + (len(ids)-idx)*b.PerNodeListBytes
		b.send(from, to, sz, &t.res, t.span, func(ok bool) {
			t.resolve(&t.res, to, ok)
			if ok {
				d := b.relayDelay(to)
				b.Cluster.Node(to).Meter.ChargeCPU(d)
				b.engine().After(d, func() { hop(to, idx+1) })
			} else {
				// Skip the dead node: the same sender tries its successor.
				hop(from, idx+1)
			}
		})
	}
	hop(origin, 0)
}

// ---------------------------------------------------------------------------
// SharedMem: the origin publishes the payload to a shared-memory service
// and every target fetches it. The service processes fetches sequentially,
// so broadcast time is ~n × service time, nearly independent of failures
// (failed nodes simply never fetch).

// SharedMem broadcasts via a publish/fetch shared-memory service hosted on
// the origin.
type SharedMem struct {
	// ServiceTime is the per-fetch handling cost at the service. Zero
	// takes a 1.2 ms default, calibrated so a 4K-node fetch storm drains
	// in a few seconds as in Fig. 8b.
	ServiceTime time.Duration
}

// Name returns "sharedmem".
func (SharedMem) Name() string { return "sharedmem" }

// Broadcast implements Structure.
func (s SharedMem) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	st := s.ServiceTime
	if st == 0 {
		st = 1200 * time.Microsecond
	}
	e := b.engine()
	t := newTracker(b, "sharedmem", len(targets), done)
	// Publish: one write into the shared segment.
	b.Cluster.Node(origin).Meter.ChargeCPU(b.SendOverhead)
	timeout := b.Cluster.Net.Config().ConnectTimeout
	queue := time.Duration(0)
	for _, id := range targets {
		id := id
		if b.Cluster.Node(id).Failed() {
			// A failed node never issues its fetch; the service notices
			// the missing ack after its timeout when collecting results.
			e.After(timeout, func() {
				t.resolve(&t.res, id, false)
			})
			continue
		}
		queue += st
		delay := queue + b.Cluster.Net.TransferTime(size)
		t.res.Messages++
		b.inst().messages.Inc()
		e.After(delay, func() {
			// The node may have failed while queued behind earlier fetches
			// (a mid-broadcast failure): its fetch never happens and the
			// service notices the missing ack after its timeout.
			if b.Cluster.Node(id).Failed() {
				e.After(timeout, func() { t.resolve(&t.res, id, false) })
				return
			}
			b.Cluster.Node(id).Meter.CountMessage(false, size)
			t.resolve(&t.res, id, true)
		})
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
	span := b.engine().Tracer().Start("fptree.build", b.SpanParent,
		obs.Int("targets", len(targets)), obs.Int("width", k.width()))
	tr := fptree.Build(append([]cluster.NodeID(nil), targets...), k.width())
	b.engine().Tracer().End(span)
	broadcastTree(b, "tree", origin, tr, size, done)
}

// broadcastTree relays a payload down a materialized tree with parent-
// adoption fault tolerance.
func broadcastTree(b *Broadcaster, structure string, origin cluster.NodeID, tr *fptree.Tree[cluster.NodeID], size int, done func(Result)) {
	e := b.engine()
	t := newTracker(b, structure, tr.Size(), done)

	var dispatch func(from cluster.NodeID, n *fptree.Node[cluster.NodeID])
	subtreeSize := func(n *fptree.Node[cluster.NodeID]) int {
		// Count nodes in the subtree for message sizing.
		c := 1
		var rec func(m *fptree.Node[cluster.NodeID])
		rec = func(m *fptree.Node[cluster.NodeID]) {
			for _, ch := range m.Children {
				c++
				rec(ch)
			}
		}
		rec(n)
		return c
	}
	dispatch = func(from cluster.NodeID, n *fptree.Node[cluster.NodeID]) {
		sz := size + subtreeSize(n)*b.PerNodeListBytes
		b.send(from, n.Value, sz, &t.res, t.span, func(ok bool) {
			t.resolve(&t.res, n.Value, ok)
			if ok {
				if len(n.Children) == 0 {
					return
				}
				d := b.relayDelay(n.Value)
				b.Cluster.Node(n.Value).Meter.ChargeCPU(d)
				e.After(d, func() {
					for _, ch := range n.Children {
						dispatch(n.Value, ch)
					}
				})
				return
			}
			// Fault tolerance: the parent adopts the failed child's
			// children and contacts them directly.
			if len(n.Children) > 0 {
				e.Tracer().Instant("comm.adopt", t.span,
					obs.Int("failed", int(n.Value)), obs.Int("children", len(n.Children)))
			}
			for _, ch := range n.Children {
				dispatch(from, ch)
			}
		})
	}
	for _, r := range tr.Roots {
		dispatch(origin, r)
	}
	if len(tr.Roots) == 0 {
		// Empty target list: tracker already finished.
		_ = t
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

// Plan returns the rearranged target list without broadcasting — used by
// tests and by the FP-Tree constructor pipeline.
func (f FPTree) Plan(targets []cluster.NodeID) []cluster.NodeID {
	pred := f.Predictor
	if pred == nil {
		pred = predict.Null{}
	}
	return fptree.Rearrange(targets, func(id cluster.NodeID) bool { return pred.Predicted(id) }, f.width())
}

// Broadcast implements Structure.
func (f FPTree) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	pred := f.Predictor
	if pred == nil {
		pred = predict.Null{}
	}
	trc := b.engine().Tracer()
	span := trc.Start("fptree.plan", b.SpanParent,
		obs.Int("targets", len(targets)), obs.Int("width", f.width()))
	list := f.Plan(targets)
	trc.End(span)
	span = trc.Start("fptree.build", b.SpanParent, obs.Int("targets", len(list)))
	tr := fptree.Build(list, f.width())
	trc.End(span)
	if f.Stats != nil {
		f.Stats.TreesBuilt++
		f.Stats.NodesTotal += len(list)
		slots := fptree.LeafSlots(len(list), f.width())
		for i, id := range list {
			if b.Cluster.Node(id).Failed() {
				f.Stats.FailedEncountered++
				if slots[i] && pred.Predicted(id) {
					f.Stats.FailedAtLeaves++
				}
			}
		}
	}
	broadcastTree(b, "fptree", origin, tr, size, done)
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
	t := newTracker(b, "binomial", len(targets), done)
	ids := append([]cluster.NodeID(nil), targets...)

	// relay(holder, lo, hi): holder (origin for the root call, otherwise
	// ids[lo-1]'s owner) is responsible for delivering ids[lo:hi). It
	// sends to the block's head, then splits: the head takes the upper
	// half, the holder keeps recursing on the lower half — the standard
	// binomial recursion.
	var relay func(holder cluster.NodeID, lo, hi int)
	relay = func(holder cluster.NodeID, lo, hi int) {
		if lo >= hi {
			return
		}
		head := ids[lo]
		sz := size + (hi-lo)*b.PerNodeListBytes
		b.send(holder, head, sz, &t.res, t.span, func(ok bool) {
			t.resolve(&t.res, head, ok)
			mid := lo + 1 + (hi-lo-1)/2
			if ok {
				d := b.relayDelay(head)
				b.Cluster.Node(head).Meter.ChargeCPU(d)
				b.engine().After(d, func() { relay(head, mid, hi) })
				relay(holder, lo+1, mid)
				return
			}
			// Fault tolerance: the holder keeps both halves.
			if hi-lo > 1 {
				b.engine().Tracer().Instant("comm.adopt", t.span,
					obs.Int("failed", int(head)), obs.Int("children", hi-lo-1))
			}
			relay(holder, mid, hi)
			relay(holder, lo+1, mid)
		})
	}
	relay(origin, 0, len(ids))
}
