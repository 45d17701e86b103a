package comm

import (
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/fptree"
	"eslurm/internal/obs"
)

// ShardBroadcaster is the broadcast layer over a sharded cluster: the
// star and k-ary-tree structures with the same retry and parent-adoption
// fault tolerance as Broadcaster, rebuilt on the split-callback wire
// contract a multi-cell simulation imposes.
//
// What changes versus the single-engine Broadcaster:
//
//   - Acknowledgement latency is modelled, not elided. A sender learns of
//     a delivery one link latency after it happens (ShardedCluster's
//     onAcked), and a relay's resolution reaches the origin's tracker one
//     more latency later — so Delivered/Elapsed include the ack traffic a
//     real RM master actually waits for.
//   - All per-sender state (connection-slot limiters, retry chains) lives
//     on the sender's cell; all tracker state lives on the origin's cell;
//     instruments are per-cell registries folded by MergedMetrics. No
//     state is shared across cells — notifications ride the shard group's
//     deterministic cross-cell channel.
//   - Tracing spans land on the tracer of the cell executing the
//     instrumented code (spans are worker-count-invariant because the
//     per-cell event streams are). A span whose logical parent lives on
//     another cell's tracer records the "xparent" attribute
//     (obs.CellRef) instead of a parent id; critpath.FromCells resolves
//     those hand-offs when flattening the per-cell recordings into one
//     DAG. Span names and semantics match the single-engine
//     Broadcaster: comm.broadcast, comm.send, comm.retry, comm.adopt,
//     fptree.build.
type ShardBroadcaster struct {
	C *cluster.ShardedCluster
	// Retries is the number of connection attempts per link (paper: 3),
	// retried immediately.
	Retries int
	// SendOverhead is the sender-side dispatch cost per message.
	SendOverhead time.Duration
	// RelayOverhead is the receiver-side cost before a relay forwards.
	RelayOverhead time.Duration
	// MaxConcurrent caps simultaneous outstanding connections per sender.
	MaxConcurrent int
	// PerNodeListBytes is the wire overhead per participant carried in
	// relay messages.
	PerNodeListBytes int
	// RecordResolved makes every Result carry delivered identities.
	RecordResolved bool
	// OnResolve, when non-nil, fires exactly once per (broadcast, target)
	// on the origin's cell at the instant the target resolves.
	OnResolve func(to cluster.NodeID, ok bool)
	// SpanParent / SpanParentCell, when SpanParent is non-zero, parent
	// the next broadcast's root span (the sharded analogue of
	// Broadcaster.SpanParent: the caller sets them immediately before a
	// Broadcast* call, and the tracker consumes and clears them). The
	// parent span must live on SpanParentCell's tracer.
	SpanParent     obs.SpanID
	SpanParentCell int

	// Per-cell state, indexed by cell: each entry is touched only by that
	// cell's events (or the idle coordinator).
	limiters []map[cluster.NodeID]*limiter
	ins      []*instruments
}

// spanRef locates a span across cells: the tracer that recorded it
// (cell) and its id there. The zero ref means "no parent".
type spanRef struct {
	cell int
	id   obs.SpanID
}

// startSpan opens a span on cell's tracer under the given cross-cell
// parent: same-cell parents link directly; remote ones ride the
// "xparent" attribute. Nil-tracer cells record nothing (returns 0).
func (b *ShardBroadcaster) startSpan(name string, cell int, parent spanRef, attrs ...obs.Attr) obs.SpanID {
	tr := b.C.Group().Cell(cell).Tracer()
	if tr == nil {
		return 0
	}
	if parent.id != 0 && parent.cell != cell {
		attrs = append([]obs.Attr{obs.String("xparent", obs.CellRef(parent.cell, parent.id))}, attrs...)
		return tr.Start(name, 0, attrs...)
	}
	return tr.Start(name, parent.id, attrs...)
}

// instantSpan records an instant on cell's tracer under the cross-cell
// parent, with the same hand-off rule as startSpan.
func (b *ShardBroadcaster) instantSpan(name string, cell int, parent spanRef, attrs ...obs.Attr) {
	tr := b.C.Group().Cell(cell).Tracer()
	if tr == nil {
		return
	}
	if parent.id != 0 && parent.cell != cell {
		attrs = append([]obs.Attr{obs.String("xparent", obs.CellRef(parent.cell, parent.id))}, attrs...)
		tr.Instant(name, 0, attrs...)
		return
	}
	tr.Instant(name, parent.id, attrs...)
}

// NewShardBroadcaster returns a ShardBroadcaster with the paper's
// defaults, its per-cell limiter maps and instruments built eagerly on
// the calling goroutine.
func NewShardBroadcaster(c *cluster.ShardedCluster) *ShardBroadcaster {
	cells := c.Group().Cells()
	b := &ShardBroadcaster{
		C:                c,
		Retries:          3,
		SendOverhead:     30 * time.Microsecond,
		RelayOverhead:    200 * time.Microsecond,
		MaxConcurrent:    128,
		PerNodeListBytes: 16,
		limiters:         make([]map[cluster.NodeID]*limiter, cells),
		ins:              make([]*instruments, cells),
	}
	for i := 0; i < cells; i++ {
		b.limiters[i] = make(map[cluster.NodeID]*limiter)
		m := c.Group().Cell(i).Metrics()
		b.ins[i] = &instruments{
			delivered:   m.Counter("comm.delivered"),
			unreachable: m.Counter("comm.unreachable"),
			messages:    m.Counter("comm.messages"),
			retries:     m.Counter("comm.retries"),
			outstanding: m.Gauge("comm.outstanding_sends"),
			elapsed:     m.Histogram("comm.broadcast_elapsed_ns", broadcastElapsedBounds()),
		}
	}
	return b
}

func (b *ShardBroadcaster) limiter(id cluster.NodeID) *limiter {
	cell := b.C.CellOf(id)
	l, ok := b.limiters[cell][id]
	if !ok {
		l = &limiter{max: b.MaxConcurrent}
		b.limiters[cell][id] = l
	}
	return l
}

// OutstandingSends returns the in-flight delivery-chain count summed
// across cells. Idle-only: call between RunUntil phases (the chaos
// harness's drain invariant).
func (b *ShardBroadcaster) OutstandingSends() int {
	n := 0
	for _, in := range b.ins {
		n += int(in.outstanding.Value())
	}
	return n
}

// send runs one delivery chain from -> to with retries, on from's cell.
// onArrive (may be nil) runs on to's cell at the first payload arrival
// (duplicates are deduplicated here, so relays forward once). onResolved
// runs on from's cell exactly once with the outcome and the chain's
// message/retry counts.
func (b *ShardBroadcaster) send(from, to cluster.NodeID, size int, parent spanRef, onArrive func(), onResolved func(ok bool, msgs, retries int)) {
	e := b.C.Engine(from)
	fromCell := b.C.CellOf(from)
	in := b.ins[fromCell]
	lim := b.limiter(from)
	in.outstanding.Add(1)
	tr := e.Tracer()
	span := b.startSpan("comm.send", fromCell, parent, obs.Int("from", int(from)), obs.Int("to", int(to)))
	lim.acquire(func() {
		attempts, msgs, retries := 0, 0, 0
		resolved := false
		arrived := false // touched only on to's cell
		settle := func(ok bool) {
			resolved = true
			in.outstanding.Add(-1)
			tr.SetAttrInt(span, "attempts", attempts)
			if !ok {
				tr.SetAttr(span, "ok", "false")
			}
			tr.End(span)
			lim.release()
			onResolved(ok, msgs, retries)
		}
		var attempt func()
		attempt = func() {
			attempts++
			msgs++
			in.messages.Inc()
			if attempts > 1 {
				retries++
				in.retries.Inc()
				tr.Instant("comm.retry", span, obs.Int("attempt", attempts))
			}
			b.C.Node(from).Meter.ChargeCPU(b.SendOverhead)
			e.After(b.SendOverhead, func() {
				b.C.Send(from, to, size,
					func() { // payload arrival, to's cell
						if arrived {
							return
						}
						arrived = true
						if onArrive != nil {
							onArrive()
						}
					},
					func() { // ack, from's cell
						if resolved {
							return
						}
						settle(true)
					},
					func() { // attempt failed, from's cell
						if resolved {
							return
						}
						if attempts < b.Retries {
							attempt()
							return
						}
						settle(false)
					})
			})
		}
		attempt()
	})
}

// SendOne delivers one point-to-point message with the broadcaster's
// retry policy, outside any broadcast. cb (may be nil) runs on from's
// cell with true on acknowledged delivery.
func (b *ShardBroadcaster) SendOne(from, to cluster.NodeID, size int, cb func(ok bool)) {
	parent := spanRef{cell: b.SpanParentCell, id: b.SpanParent}
	b.SpanParent, b.SpanParentCell = 0, 0
	b.send(from, to, size, parent, nil, func(ok bool, _, _ int) {
		if cb != nil {
			cb(ok)
		}
	})
}

// shardTracker finalizes one broadcast's Result on the origin's cell.
// It owns the broadcast's comm.broadcast span, recorded on the origin
// cell's tracer.
type shardTracker struct {
	b       *ShardBroadcaster
	origin  cluster.NodeID
	start   time.Duration
	pending int
	res     Result
	done    func(Result)
	span    obs.SpanID
}

// ref returns the tracker's broadcast span as a cross-cell reference for
// parenting spans recorded on other cells.
func (t *shardTracker) ref() spanRef {
	return spanRef{cell: t.b.C.CellOf(t.origin), id: t.span}
}

func (b *ShardBroadcaster) newTracker(origin cluster.NodeID, structure string, pending int, done func(Result)) *shardTracker {
	t := &shardTracker{b: b, origin: origin, start: b.C.Engine(origin).Now(), pending: pending, done: done}
	parent := spanRef{cell: b.SpanParentCell, id: b.SpanParent}
	b.SpanParent, b.SpanParentCell = 0, 0
	t.span = b.startSpan("comm.broadcast", b.C.CellOf(origin), parent,
		obs.String("structure", structure), obs.Int("targets", pending))
	if pending == 0 {
		t.finish()
	}
	return t
}

func (t *shardTracker) resolve(id cluster.NodeID, ok bool, msgs, retries int) {
	in := t.b.ins[t.b.C.CellOf(t.origin)]
	if t.b.OnResolve != nil {
		t.b.OnResolve(id, ok)
	}
	t.res.Messages += msgs
	t.res.Retries += retries
	if ok {
		t.res.Delivered++
		in.delivered.Inc()
		if t.b.RecordResolved {
			t.res.Resolved = append(t.res.Resolved, id)
		}
		if d := t.b.C.Engine(t.origin).Now() - t.start; d > t.res.DeliveredElapsed {
			t.res.DeliveredElapsed = d
		}
	} else {
		t.res.Unreachable = append(t.res.Unreachable, id)
		in.unreachable.Inc()
	}
	t.pending--
	if t.pending == 0 {
		t.finish()
	}
}

func (t *shardTracker) finish() {
	t.res.Elapsed = t.b.C.Engine(t.origin).Now() - t.start
	t.b.ins[t.b.C.CellOf(t.origin)].elapsed.Observe(int64(t.res.Elapsed))
	if tr := t.b.C.Engine(t.origin).Tracer(); tr != nil {
		tr.SetAttrInt(t.span, "delivered", t.res.Delivered)
		tr.SetAttrInt(t.span, "unreachable", len(t.res.Unreachable))
		tr.End(t.span)
	}
	if t.done != nil {
		t.done(t.res)
	}
}

// notifyResolve routes one link's outcome from the sender's cell to the
// origin's tracker. Same-cell senders resolve synchronously; remote
// senders' outcomes ride the deterministic cross-cell channel one link
// latency later — the notification leg of the ack traffic.
func (b *ShardBroadcaster) notifyResolve(t *shardTracker, sender, id cluster.NodeID, ok bool, msgs, retries int) {
	senderCell, originCell := b.C.CellOf(sender), b.C.CellOf(t.origin)
	if senderCell == originCell {
		t.resolve(id, ok, msgs, retries)
		return
	}
	b.C.Group().SendAfter(senderCell, originCell, 0, func() {
		t.resolve(id, ok, msgs, retries)
	})
}

// BroadcastStar delivers size payload bytes from origin directly to
// every target, bounded by the origin's MaxConcurrent slots. done (may
// be nil) runs on the origin's cell exactly once.
func (b *ShardBroadcaster) BroadcastStar(origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	t := b.newTracker(origin, "star", len(targets), done)
	for _, id := range targets {
		id := id
		b.send(origin, id, size, t.ref(), nil, func(ok bool, msgs, retries int) {
			b.notifyResolve(t, origin, id, ok, msgs, retries)
		})
	}
}

// BroadcastTree delivers over a width-w relay tree built from the target
// list order, with parent adoption on relay failure: when a relay is
// unreachable after retries, its sender contacts the orphaned children
// directly. The tree is built once on the origin's cell and shared
// read-only across cells; every mutation (tracker, limiters, meters)
// stays on the cell that owns it. width <= 0 takes fptree.DefaultWidth.
func (b *ShardBroadcaster) BroadcastTree(origin cluster.NodeID, targets []cluster.NodeID, size int, width int, done func(Result)) {
	if width <= 0 {
		width = fptree.DefaultWidth
	}
	// The build span is a sibling of the broadcast span, like the
	// single-engine KTree: both parent under the caller's SpanParent.
	buildParent := spanRef{cell: b.SpanParentCell, id: b.SpanParent}
	span := b.startSpan("fptree.build", b.C.CellOf(origin), buildParent,
		obs.Int("targets", len(targets)), obs.Int("width", width))
	tr := fptree.Build(append([]cluster.NodeID(nil), targets...), width)
	b.C.Engine(origin).Tracer().End(span)
	t := b.newTracker(origin, "tree", tr.Size(), done)
	b.dispatchTree(t, origin, tr.Roots, size)
}

// dispatchTree sends to each subtree root from `from`, on from's cell.
func (b *ShardBroadcaster) dispatchTree(t *shardTracker, from cluster.NodeID, nodes []*fptree.Node[cluster.NodeID], size int) {
	for _, n := range nodes {
		n := n
		sz := size + subtreeCount(n)*b.PerNodeListBytes
		b.send(from, n.Value, sz, t.ref(),
			func() { // payload at the relay: forward to children
				if len(n.Children) == 0 {
					return
				}
				d := b.RelayOverhead
				if g := b.C.GrayFactorOn(n.Value, n.Value); g > 1 {
					d = time.Duration(float64(d) * g)
				}
				b.C.Node(n.Value).Meter.ChargeCPU(d)
				b.C.Engine(n.Value).After(d, func() {
					b.dispatchTree(t, n.Value, n.Children, size)
				})
			},
			func(ok bool, msgs, retries int) { // outcome at the sender
				b.notifyResolve(t, from, n.Value, ok, msgs, retries)
				if !ok {
					// Parent adoption: contact the orphaned children
					// directly from this sender.
					if len(n.Children) > 0 {
						b.instantSpan("comm.adopt", b.C.CellOf(from), t.ref(),
							obs.Int("failed", int(n.Value)), obs.Int("children", len(n.Children)))
					}
					b.dispatchTree(t, from, n.Children, size)
				}
			})
	}
}

// BroadcastRelayed delivers through a two-level structure: origin hands
// contiguous target groups to relay nodes (ESlurm's satellites), each
// relay pays RelayOverhead and tree-broadcasts its group at the given
// width. A relay that is unreachable after retries is routed around:
// the origin broadcasts that relay's group directly (the sharded
// simplification of core.Master's satellite reallocation). Relays are
// conduits, not targets — Result counts target deliveries only. done
// (may be nil) runs on the origin's cell exactly once.
func (b *ShardBroadcaster) BroadcastRelayed(origin cluster.NodeID, relays, targets []cluster.NodeID, size, width int, done func(Result)) {
	if len(relays) == 0 {
		b.BroadcastTree(origin, targets, size, width, done)
		return
	}
	if width <= 0 {
		width = fptree.DefaultWidth
	}
	t := b.newTracker(origin, "relayed", len(targets), done)
	per := (len(targets) + len(relays) - 1) / len(relays)
	for i, relay := range relays {
		lo := i * per
		if lo >= len(targets) {
			break
		}
		hi := lo + per
		if hi > len(targets) {
			hi = len(targets)
		}
		relay, group := relay, targets[lo:hi]
		span := b.startSpan("fptree.build", b.C.CellOf(origin), t.ref(),
			obs.Int("targets", len(group)), obs.Int("width", width))
		tr := fptree.Build(append([]cluster.NodeID(nil), group...), width)
		b.C.Engine(origin).Tracer().End(span)
		taskSz := size + len(group)*b.PerNodeListBytes
		b.send(origin, relay, taskSz, t.ref(),
			func() { // task at the relay: fan the group out
				d := b.RelayOverhead
				if g := b.C.GrayFactorOn(relay, relay); g > 1 {
					d = time.Duration(float64(d) * g)
				}
				b.C.Node(relay).Meter.ChargeCPU(d)
				b.C.Engine(relay).After(d, func() {
					b.dispatchTree(t, relay, tr.Roots, size)
				})
			},
			func(ok bool, msgs, retries int) { // task outcome at the origin
				t.res.Messages += msgs
				t.res.Retries += retries
				if !ok {
					// Route around the dead relay: origin takes the group.
					b.dispatchTree(t, origin, tr.Roots, size)
				}
			})
	}
}

// subtreeCount returns the node count of a subtree (message sizing).
func subtreeCount(n *fptree.Node[cluster.NodeID]) int {
	c := 1
	for _, ch := range n.Children {
		c += subtreeCount(ch)
	}
	return c
}
