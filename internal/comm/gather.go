package comm

import (
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/fptree"
	"eslurm/internal/obs"
	"eslurm/internal/predict"
)

// This file implements broadcast-with-gather: the payload flows down the
// relay tree and per-node acknowledgements flow back *up* it, merged at
// every interior node, so the origin receives one aggregated reply per
// first-layer subtree rather than one ack per node. This is the satellite
// node's "bidirectional communication buffer with initial data aggregation
// and processing capabilities" (Section III-A) realized as actual reverse-
// path messages rather than bookkeeping.

// GatherResult is the outcome of a BroadcastGather: the plain broadcast
// Result plus the time at which the origin held the complete aggregate.
type GatherResult struct {
	Result
	// AggregatedAt is when the last first-layer aggregate reached the
	// origin (equals Result.Elapsed by construction).
	AggregatedAt time.Duration
}

// GatherTree broadcasts over an FP-Tree and gathers merged
// acknowledgements back to the origin.
type GatherTree struct {
	// Width is the tree fan-out; zero takes fptree.DefaultWidth.
	Width int
	// Predictor supplies the predicted-failed set (nil = none).
	Predictor predict.Predictor
	// AckBytesPerNode sizes the aggregate messages (default 16).
	AckBytesPerNode int
}

// Name returns "gathertree".
func (GatherTree) Name() string { return "gathertree" }

func (g GatherTree) width() int {
	if g.Width == 0 {
		return fptree.DefaultWidth
	}
	return g.Width
}

func (g GatherTree) ackBytes() int {
	if g.AckBytesPerNode == 0 {
		return 16
	}
	return g.AckBytesPerNode
}

// subReply is one subtree's merged acknowledgement: who was reached, who
// was not, and when the payload last landed in the subtree. It travels up
// with the aggregate message, so each level's copy is only ever touched
// on the cell of the node currently holding it.
type subReply struct {
	ok   []cluster.NodeID
	bad  []cluster.NodeID
	last time.Duration // virtual time of the subtree's last delivery
}

func (r *subReply) merge(sub subReply) {
	r.ok = append(r.ok, sub.ok...)
	r.bad = append(r.bad, sub.bad...)
	if sub.last > r.last {
		r.last = sub.last
	}
}

// Broadcast implements Structure: done fires when the origin holds the
// full aggregate.
func (g GatherTree) Broadcast(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(Result)) {
	g.BroadcastGather(b, origin, targets, size, func(r GatherResult) {
		if done != nil {
			done(r.Result)
		}
	})
}

// BroadcastGather runs the broadcast+gather and reports the GatherResult
// on origin's cell. OnResolve fires where each link resolves: on the
// cell of the node that sent the payload.
func (g GatherTree) BroadcastGather(b *Broadcaster, origin cluster.NodeID, targets []cluster.NodeID, size int, done func(GatherResult)) {
	st := b.on(origin)
	e := st.e
	start := e.Now()
	pred := g.Predictor
	if pred == nil {
		pred = predict.Null{}
	}
	trc := e.Tracer()
	span := spanRef{b.Cluster.Node(origin).Cell, trc.Start("comm.broadcast", b.SpanParent,
		obs.String("structure", "gathertree"), obs.Int("targets", len(targets)))}
	b.SpanParent = 0
	planSpan := trc.Start("fptree.plan", span.id, obs.Int("targets", len(targets)), obs.Int("width", g.width()))
	list := fptree.Rearrange(targets, func(id cluster.NodeID) bool { return pred.Predicted(id) }, g.width())
	trc.End(planSpan)
	buildSpan := trc.Start("fptree.build", span.id, obs.Int("targets", len(list)))
	tr := fptree.Build(list, g.width())
	trc.End(buildSpan)

	res := GatherResult{}
	tallies := make([]tally, len(b.cells))
	send := func(from, to cluster.NodeID, size int, onArrive func(), cb func(ok bool)) {
		b.send(from, to, size, &tallies[b.Cluster.Node(from).Cell], span, &funcSink{onArrive, cb}, nil)
	}

	// collect visits every child from `from` and invokes then, on from's
	// cell, once all their replies are merged into into.
	var visit func(from cluster.NodeID, n *fptree.Node[cluster.NodeID], reply func(subReply))
	collect := func(from cluster.NodeID, children []*fptree.Node[cluster.NodeID], into *subReply, then func()) {
		pending := len(children)
		if pending == 0 {
			then()
			return
		}
		for _, ch := range children {
			visit(from, ch, func(r subReply) {
				into.merge(r)
				pending--
				if pending == 0 {
					then()
				}
			})
		}
	}

	// visit delivers the payload to n's subtree from `from` and invokes
	// reply exactly once, on from's cell, with the subtree's merged
	// acknowledgement.
	visit = func(from cluster.NodeID, n *fptree.Node[cluster.NodeID], reply func(subReply)) {
		sz := size + subtreeCount(n)*b.PerNodeListBytes
		send(from, n.Value, sz,
			func() { // the payload is at n: relay down, merge, aggregate up
				merged := &subReply{ok: []cluster.NodeID{n.Value}, last: b.Cluster.EngineOf(n.Value).Now()}
				b.Cluster.EngineOf(n.Value).After(b.relayDelay(n.Value), func() {
					collect(n.Value, n.Children, merged, func() {
						// The aggregate travels up as one real message sized by the
						// subtree's node count. A lost aggregate (parent died) is
						// degraded to local bookkeeping so the gather still
						// terminates.
						aggSz := (len(merged.ok) + len(merged.bad)) * g.ackBytes()
						send(n.Value, from, aggSz,
							func() { reply(*merged) },
							func(ok bool) {
								if !ok {
									b.handoff(n.Value, from, func() { reply(*merged) })
								}
							})
					})
				})
			},
			func(delivered bool) {
				if b.OnResolve != nil {
					b.OnResolve(n.Value, delivered)
				}
				if !delivered {
					// Adoption: `from` contacts the dead child's children
					// directly and merges their replies itself.
					merged := &subReply{bad: []cluster.NodeID{n.Value}}
					collect(from, n.Children, merged, func() { reply(*merged) })
				}
			})
	}

	// seal finalizes the Result, the registry instruments and the root span
	// once the origin holds the complete aggregate (or the target list was
	// empty).
	seal := func(all subReply) {
		res.Delivered = len(all.ok)
		if b.RecordResolved {
			res.Resolved = all.ok
		}
		res.Unreachable = all.bad
		for _, tl := range tallies {
			res.Messages += tl.messages
			res.Retries += tl.retries
		}
		res.Elapsed = e.Now() - start
		res.AggregatedAt = res.Elapsed
		if all.last > start {
			res.DeliveredElapsed = all.last - start
		}
		in := st.inst()
		in.delivered.Add(int64(res.Delivered))
		in.unreachable.Add(int64(len(res.Unreachable)))
		in.elapsed.Observe(int64(res.Elapsed))
		trc.SetAttrInt(span.id, "delivered", res.Delivered)
		trc.SetAttrInt(span.id, "unreachable", len(res.Unreachable))
		trc.End(span.id)
		if done != nil {
			done(res)
		}
	}
	all := &subReply{}
	collect(origin, tr.Roots, all, func() { seal(*all) })
}
