package cluster

import (
	"math/rand"
	"time"

	"eslurm/internal/simnet"
)

// Disabled is the sentinel for NetConfig duration fields whose zero value
// would otherwise be replaced by a default: an explicitly disabled cost.
// NetConfig{Jitter: cluster.Disabled} means "no jitter at all", whereas
// NetConfig{} (Jitter zero) takes the default — the Go zero value stays
// backward compatible and zero stays configurable.
const Disabled time.Duration = -1

// NetConfig parameterizes the latency model. The defaults approximate the
// Tianhe proprietary interconnect described in the paper's appendix (25
// Gbps per four-lane port, 100 Gbps one-port one-way) plus TCP/daemon
// software overheads, which dominate RM control traffic.
//
// The adversarial knobs (LossProb, DupProb) extend the clean fail-stop
// model: they default to zero (off) and draw from their own named simnet
// RNG streams only when enabled, so enabling one never perturbs the event
// trace of a configuration that has it off.
type NetConfig struct {
	// ConnectCost is the time to establish a TCP connection to a healthy
	// node (handshake + daemon accept). Set Disabled for a free connect.
	ConnectCost time.Duration
	// Latency is the one-way propagation + protocol latency per message.
	// Set Disabled for zero latency.
	Latency time.Duration
	// BandwidthBps is the per-link bandwidth in bytes per second used to
	// compute serialization delay for a message of a given size.
	BandwidthBps float64
	// ConnectTimeout is how long a sender waits before concluding the peer
	// is dead (per attempt). The comm layer retries on top of this.
	ConnectTimeout time.Duration
	// Jitter is the maximum uniform random extra latency per message,
	// modelling OS scheduling and congestion noise. Set Disabled for a
	// jitter-free network.
	Jitter time.Duration
	// LossProb is the probability a message vanishes in transit: the
	// sender gets no acknowledgement and hits ConnectTimeout exactly as if
	// the peer were dead, so the comm retry policy is what recovers it.
	// Zero (the default) disables loss and its RNG stream.
	LossProb float64
	// DupProb is the probability a delivered message is delivered a second
	// time (retransmission after a lost ack). The duplicate arrives one
	// Latency after the original; receivers must be idempotent. Zero
	// disables duplication and its RNG stream.
	DupProb float64
}

// DefaultNetConfig returns the calibration used across the experiments.
func DefaultNetConfig() NetConfig {
	return NetConfig{
		ConnectCost:    300 * time.Microsecond,
		Latency:        150 * time.Microsecond,
		BandwidthBps:   1.5e9, // ~12 Gbps effective for control-plane TCP
		ConnectTimeout: 1 * time.Second,
		Jitter:         100 * time.Microsecond,
	}
}

// normDuration maps the zero value to the default and the Disabled
// sentinel (any negative) to an explicit zero.
func normDuration(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

func (c NetConfig) withDefaults() NetConfig {
	d := DefaultNetConfig()
	c.ConnectCost = normDuration(c.ConnectCost, d.ConnectCost)
	c.Latency = normDuration(c.Latency, d.Latency)
	c.ConnectTimeout = normDuration(c.ConnectTimeout, d.ConnectTimeout)
	c.Jitter = normDuration(c.Jitter, d.Jitter)
	if c.BandwidthBps <= 0 {
		// Zero bandwidth would make every transfer infinite; there is no
		// meaningful "explicit zero" here, so non-positive takes the default.
		c.BandwidthBps = d.BandwidthBps
	}
	if c.LossProb < 0 {
		c.LossProb = 0
	}
	if c.LossProb > 1 {
		c.LossProb = 1
	}
	if c.DupProb < 0 {
		c.DupProb = 0
	}
	if c.DupProb > 1 {
		c.DupProb = 1
	}
	return c
}

// Network delivers messages between nodes of one cluster with a
// latency+bandwidth cost model and an adversarial fault model layered on
// top of fail-stop semantics:
//
//   - a message to a failed node costs the sender the connect timeout and
//     reports failure (fail-stop, as before);
//   - a message crossing an active partition boundary behaves exactly like
//     a message to a dead node — the sender cannot distinguish the two;
//   - a lost message (LossProb) silently vanishes and the sender times out;
//   - a duplicated message (DupProb) is delivered twice;
//   - a gray node (SetGray) is alive but slow: connect and transfer costs
//     to and from it are inflated by its factor.
//
// All randomness is drawn from named simnet streams of the sender's cell,
// so any configuration is bit-deterministic per seed, and disabled
// features draw nothing.
//
// The Network is the one link between cells (DESIGN.md §4): a message's
// two halves — the receiver's on the destination's cell, the sender's on
// the source's — run at the same virtual instant, each deciding from its
// own cell's cellView, and whether the two cells differ is a fact only
// send looks at.
type Network struct {
	cluster *Cluster
	cfg     NetConfig
	views   []*cellView // by cell
}

// cellView is one cell's private replica of the fault state plus its
// jitter stream. Only that cell's events read or write it while the group
// runs; every replica is flipped by the same change at the same virtual
// instant (flip, flipAt), so all of them agree whenever a message consults
// one.
type cellView struct {
	faultState
	cell int
	e    *simnet.Engine
	rng  *rand.Rand
}

func newNetwork(c *Cluster, cfg NetConfig) *Network {
	n := &Network{cluster: c, cfg: cfg, views: make([]*cellView, c.group.Cells())}
	for i := range n.views {
		e := c.group.Cell(i)
		n.views[i] = &cellView{cell: i, e: e, rng: e.Rand("cluster/network")}
		n.views[i].failed = make([]bool, len(c.nodes))
	}
	for _, node := range c.nodes {
		node.view, node.control = n.views[node.Cell], n.views[0]
	}
	return n
}

// view returns the replica of id's home cell.
func (n *Network) view(id NodeID) *cellView { return n.cluster.nodes[id].view }

// Config returns the effective network configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// flip applies one fault-state change to every cell's replica now. On a
// multi-cell cluster that is sound only while the group is idle — every
// cell stands at the same instant and all cross-cell mail is merged — so
// from inside an event it panics: a change that must land mid-run is
// pre-scheduled from an idle point instead.
func (n *Network) flip(change func(v *cellView)) {
	n.idleOnly()
	for _, v := range n.views {
		change(v)
	}
}

// flipAt pre-schedules change on every cell at virtual time at. Scheduled
// from an idle point the events get the same place in every cell's order
// relative to any message half at the same instant, which is what keeps
// the two halves of a message agreeing (DESIGN.md §4).
func (n *Network) flipAt(at time.Duration, change func(v *cellView)) {
	n.idleOnly()
	for _, v := range n.views {
		v.e.Schedule(at, func() { change(v) })
	}
}

func (n *Network) idleOnly() {
	if len(n.views) > 1 && !n.cluster.group.Idle() {
		panic("cluster: fault state changed from inside an event on a multi-cell cluster; pre-schedule it from an idle point with Cluster.ScheduleFailure, Network.ScheduleGray or Network.SchedulePartition")
	}
}

// SetGray marks a node as a gray failure: alive, but every connect and
// transfer involving it is multiplied by factor (> 1). A factor <= 1
// clears the mark.
func (n *Network) SetGray(id NodeID, factor float64) {
	n.flip(func(v *cellView) { v.setGray(id, factor) })
}

// ClearGray removes a node's gray-failure mark.
func (n *Network) ClearGray(id NodeID) { n.SetGray(id, 1) }

// ScheduleGray marks a node gray at virtual time at; if clearAfter is
// positive the mark clears that much later.
func (n *Network) ScheduleGray(id NodeID, factor float64, at, clearAfter time.Duration) {
	n.flipAt(at, func(v *cellView) { v.setGray(id, factor) })
	if clearAfter > 0 {
		n.flipAt(at+clearAfter, func(v *cellView) { v.setGray(id, 1) })
	}
}

// GrayFactor returns the node's slowdown factor (1 when healthy), as the
// control cell sees it.
func (n *Network) GrayFactor(id NodeID) float64 { return n.views[0].grayFactor(id) }

// GrayFactorOn returns id's slowdown factor as viewer's home cell sees it
// — the read for code executing on that cell.
func (n *Network) GrayFactorOn(viewer, id NodeID) float64 { return n.view(viewer).grayFactor(id) }

// GrayCount returns the number of currently gray nodes.
func (n *Network) GrayCount() int { return len(n.views[0].gray) }

// Partition severs the member set from the rest of the cluster starting
// now: messages between a member and a non-member fail with the connect
// timeout in both directions; traffic within either side is unaffected.
// If heal > 0 the partition heals after that long; otherwise it stays
// until HealAll. Partitions compose: a link is severed if any active
// partition separates its endpoints.
func (n *Network) Partition(members []NodeID, heal time.Duration) {
	member := memberSet(members)
	n.flip(func(v *cellView) { v.severFor(member, heal) })
}

// SchedulePartition severs the member set at virtual time at, healing
// after heal if it is positive.
func (n *Network) SchedulePartition(members []NodeID, at, heal time.Duration) {
	member := memberSet(members)
	n.flipAt(at, func(v *cellView) { v.severFor(member, heal) })
}

func memberSet(members []NodeID) map[NodeID]bool {
	member := make(map[NodeID]bool, len(members))
	for _, id := range members {
		member[id] = true
	}
	return member
}

// severFor activates a partition on this replica and, if heal is positive,
// arms its heal on this cell's engine. Each replica owns its partition
// object; the member set is shared read-only.
func (v *cellView) severFor(member map[NodeID]bool, heal time.Duration) {
	p := &partition{member: member}
	v.sever(p)
	if heal > 0 {
		v.e.After(heal, func() { v.heal(p) })
	}
}

// HealAll removes every active partition.
func (n *Network) HealAll() { n.flip(func(v *cellView) { v.partitions = nil }) }

// PartitionCount returns the number of active partitions.
func (n *Network) PartitionCount() int { return len(n.views[0].partitions) }

// Severed reports whether an active partition separates the two nodes.
func (n *Network) Severed(from, to NodeID) bool { return n.views[0].severed(from, to) }

// TransferTime returns the modelled one-way delivery time for a healthy
// message of size bytes, excluding jitter, connection setup and any
// gray/degradation multipliers.
func (n *Network) TransferTime(size int) time.Duration {
	ser := time.Duration(float64(size) / n.cfg.BandwidthBps * float64(time.Second))
	return n.cfg.Latency + ser
}

// scale multiplies a duration by a factor, avoiding the float round trip
// in the common factor==1 case.
func scale(d time.Duration, f float64) time.Duration {
	if f == 1 {
		return d
	}
	return time.Duration(float64(d) * f)
}

// Outcome is what a sender learns about one message. A component that is
// already an object — a delivery chain — implements it and hands itself to
// Transmit, so the wire holds one interface value where it held three
// callbacks.
type Outcome interface {
	// Arrived runs on the destination's cell at the delivery instant, and
	// again for a duplicated delivery (NetConfig.DupProb): receivers dedup.
	Arrived()
	// Sent runs once on the sender's cell at the first delivery's instant —
	// the acknowledgement is not modelled as traffic, the sender simply
	// knows.
	Sent()
	// Failed runs on the sender's cell after the connect timeout when the
	// destination is failed or partitioned away (at send or delivery time)
	// or the message is lost in transit — the sender blocks for the
	// timeout, exactly the behaviour that makes failed interior tree nodes
	// expensive (Section IV).
	Failed()
}

// Transmit models one message from -> to carrying size bytes, called from
// an event on from's home cell (or while the group is idle), and reports
// to out. A relay forwards from Arrived; a retry chain resolves from Sent
// or Failed. Sockets and message counters on both meters are maintained
// here so every RM model accounts traffic uniformly.
func (n *Network) Transmit(from, to NodeID, size int, out Outcome) {
	n.send(from, to, size, true, out, true)
}

// callbacks adapts Send's two optional funcs to Outcome.
type callbacks struct{ onDelivered, onFailed func() }

func (c *callbacks) Arrived() {
	if c.onDelivered != nil {
		c.onDelivered()
	}
}

func (c *callbacks) Sent() {}

func (c *callbacks) Failed() {
	if c.onFailed != nil {
		c.onFailed()
	}
}

// Send is Transmit for a caller with plain callbacks: onDelivered is
// Outcome.Arrived, onFailed is Outcome.Failed, and either may be nil.
func (n *Network) Send(from, to NodeID, size int, onDelivered func(), onFailed func()) {
	n.send(from, to, size, true, &callbacks{onDelivered, onFailed}, onFailed != nil)
}

// SendPersistent models traffic over an already-established long-lived
// connection (e.g. SGE's persistent execd channels): no connect cost and no
// per-message socket churn — the caller is responsible for having opened
// the socket once. Everything else is exactly Send.
func (n *Network) SendPersistent(from, to NodeID, size int, onDelivered func(), onFailed func()) {
	n.send(from, to, size, false, &callbacks{onDelivered, onFailed}, onFailed != nil)
}

// send is the single wire. listens says whether the sender acts on Sent or
// Failed; a sender that does not, with no socket to release and no coin to
// draw, has no half to run on a cross-cell message (persistent-channel
// heartbeats).
func (n *Network) send(from, to NodeID, size int, connect bool, out Outcome, listens bool) {
	src, dst := n.cluster.nodes[from], n.cluster.nodes[to]
	v := src.view
	src.Meter.CountMessage(true, size)
	if connect {
		src.Meter.OpenSocket()
	}

	f := &flight{n: n, src: src, dst: dst, size: int32(size), connect: connect, out: out}
	if v.unreachable(from, to) || v.lost(v.e, n.cfg.LossProb) {
		v.e.AfterTo(n.cfg.ConnectTimeout, f, flightTimeout)
		return
	}

	factor := v.pathFactor(from, to)
	f.d = scale(n.TransferTime(size), factor)
	if connect {
		f.d += scale(n.cfg.ConnectCost, factor)
	}
	if n.cfg.Jitter > 0 {
		f.d += time.Duration(v.rng.Int63n(int64(n.cfg.Jitter) + 1))
	}
	if dst.Cell != src.Cell {
		n.after(v, dst.Cell, f.d, f, flightArrive)
		if connect || listens || n.cfg.DupProb > 0 {
			v.e.AfterTo(f.d, f, flightSent)
		}
		return
	}
	v.e.AfterTo(f.d, f, flightLand)
}

// after delivers kind to f on cell dst at d past v's now. Across cells d
// must be at least one Latency — the group's lookahead — which every
// delivery time is: pathFactor >= 1 and TransferTime >= Latency.
func (n *Network) after(v *cellView, dst int, d time.Duration, f *flight, kind int32) {
	if dst == v.cell {
		v.e.AfterTo(d, f, kind)
		return
	}
	n.cluster.group.SendAfterTo(v.cell, dst, d-n.cfg.Latency, f, kind)
}

// flight is one message on the wire, one allocated per attempt and owned
// by the Network. It is the handler of every event of the message's life
// (the kinds below), so a message allocates this one small object however
// many events it takes. Once launched it is only read — the destination's
// cell and the sender's may both be running one of its halves.
type flight struct {
	n        *Network
	src, dst *Node
	size     int32
	connect  bool
	d        time.Duration // modelled delivery time
	out      Outcome
}

// The events of a flight.
const (
	flightLand        int32 = iota // both halves in one event: the message stays on its cell
	flightArrive                   // the receiver's half, on the destination's cell
	flightSent                     // the sender's half, on the source's cell
	flightTimeout                  // the sender's connect timeout expired
	flightArriveAgain              // a duplicate's landing
)

// HandleEvent implements simnet.Handler.
func (f *flight) HandleEvent(kind int32) {
	switch kind {
	case flightLand:
		f.land()
	case flightArrive:
		f.arrive(true)
	case flightSent:
		f.sent()
	case flightTimeout:
		f.timeout()
	case flightArriveAgain:
		f.arrive(false)
	}
}

// unreachable asks v, the replica of the cell the caller runs on.
func (f *flight) unreachable(v *cellView) bool { return v.unreachable(f.src.ID, f.dst.ID) }

// timeout fires on the sender's cell when its connect timeout expires on
// a message that never arrived.
func (f *flight) timeout() {
	if f.connect {
		f.src.Meter.CloseSocket()
	}
	f.out.Failed()
}

// land is both halves in one event, for a message that stays on its cell.
// The sender's half runs between the receiver's bookkeeping and its
// callback: the order every one-cell trace was recorded in.
func (f *flight) land() {
	v := f.dst.view
	if f.unreachable(v) {
		f.undelivered(v)
		return
	}
	f.receive(v, true)
	f.release()
	f.out.Arrived()
	f.maybeDuplicate(v)
}

// arrive is the receiver's half, on the destination's cell; first is false
// for a duplicate. A destination that failed — or was partitioned away —
// while the message was in flight receives nothing; the sender's half
// reaches the same verdict from its own replica.
func (f *flight) arrive(first bool) {
	v := f.dst.view
	if f.unreachable(v) {
		return
	}
	f.receive(v, first)
	f.out.Arrived()
}

// sent is the sender's half, on the source's cell at the delivery instant.
func (f *flight) sent() {
	v := f.src.view
	if f.unreachable(v) {
		f.undelivered(v)
		return
	}
	f.release()
	f.maybeDuplicate(v)
}

// undelivered holds the sender — and its socket — for what remains of its
// connect timeout.
func (f *flight) undelivered(v *cellView) {
	v.e.AfterTo(f.n.cfg.ConnectTimeout-f.d, f, flightTimeout)
}

// receive is the destination's bookkeeping for one landing. Only the
// first landing of a connection opens a socket: the receiving daemon holds
// its accept socket one latency while processing — the meter is the
// handler of that close — and a duplicate rides the same accept.
func (f *flight) receive(v *cellView, first bool) {
	m := &f.dst.Meter
	m.CountMessage(false, int(f.size))
	if first && f.connect {
		m.OpenSocket()
		v.e.AfterTo(f.n.cfg.Latency, m, 0)
	}
}

// release closes the sender's connect socket and tells it the message
// landed.
func (f *flight) release() {
	if f.connect {
		f.src.Meter.CloseSocket()
	}
	f.out.Sent()
}

// maybeDuplicate draws the duplication coin on the sender's cell: a
// retransmission after a lost ack lands the same payload a second time one
// latency later, with no second acknowledgement.
func (f *flight) maybeDuplicate(v *cellView) {
	if v.duplicated(v.e, f.n.cfg.DupProb) {
		f.n.after(v, f.dst.Cell, f.n.cfg.Latency, f, flightArriveAgain)
	}
}
