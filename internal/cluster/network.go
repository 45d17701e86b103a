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
// All randomness is drawn from named simnet streams of the cluster's
// engine, so any configuration is bit-deterministic per seed, and disabled
// features draw nothing.
type Network struct {
	faultState
	cluster *Cluster
	cfg     NetConfig
	e       *simnet.Engine
	rng     *rand.Rand // jitter
}

func newNetwork(c *Cluster, cfg NetConfig) *Network {
	n := &Network{cluster: c, cfg: cfg, e: c.Engine, rng: c.Engine.Rand("cluster/network")}
	n.failed = make([]bool, len(c.nodes))
	for _, node := range c.nodes {
		node.net = n
	}
	return n
}

// Config returns the effective network configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// SetGray marks a node as a gray failure: alive, but every connect and
// transfer involving it is multiplied by factor (> 1). A factor <= 1
// clears the mark.
func (n *Network) SetGray(id NodeID, factor float64) { n.setGray(id, factor) }

// ClearGray removes a node's gray-failure mark.
func (n *Network) ClearGray(id NodeID) { n.SetGray(id, 1) }

// ScheduleGray marks a node gray at virtual time at; if clearAfter is
// positive the mark clears that much later.
func (n *Network) ScheduleGray(id NodeID, factor float64, at, clearAfter time.Duration) {
	n.e.Schedule(at, func() { n.setGray(id, factor) })
	if clearAfter > 0 {
		n.e.Schedule(at+clearAfter, func() { n.setGray(id, 1) })
	}
}

// GrayFactor returns the node's slowdown factor (1 when healthy).
func (n *Network) GrayFactor(id NodeID) float64 { return n.grayFactor(id) }

// GrayCount returns the number of currently gray nodes.
func (n *Network) GrayCount() int { return len(n.gray) }

// Partition severs the member set from the rest of the cluster starting
// now: messages between a member and a non-member fail with the connect
// timeout in both directions; traffic within either side is unaffected.
// If heal > 0 the partition heals after that long; otherwise it stays
// until HealAll. Partitions compose: a link is severed if any active
// partition separates its endpoints.
func (n *Network) Partition(members []NodeID, heal time.Duration) {
	n.severFor(memberSet(members), heal)
}

// SchedulePartition severs the member set at virtual time at, healing
// after heal if it is positive.
func (n *Network) SchedulePartition(members []NodeID, at, heal time.Duration) {
	member := memberSet(members)
	n.e.Schedule(at, func() { n.severFor(member, heal) })
}

func memberSet(members []NodeID) map[NodeID]bool {
	member := make(map[NodeID]bool, len(members))
	for _, id := range members {
		member[id] = true
	}
	return member
}

// severFor activates a partition over member and, if heal is positive,
// arms its heal.
func (n *Network) severFor(member map[NodeID]bool, heal time.Duration) {
	p := &partition{member: member}
	n.sever(p)
	if heal > 0 {
		n.e.After(heal, func() { n.heal(p) })
	}
}

// HealAll removes every active partition.
func (n *Network) HealAll() { n.partitions = nil }

// PartitionCount returns the number of active partitions.
func (n *Network) PartitionCount() int { return len(n.partitions) }

// Severed reports whether an active partition separates the two nodes.
func (n *Network) Severed(from, to NodeID) bool { return n.severed(from, to) }

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
	// Arrived runs at the delivery instant, and again for a duplicated
	// delivery (NetConfig.DupProb): receivers dedup.
	Arrived()
	// Sent runs once at the first delivery's instant, just before that
	// delivery's Arrived — the acknowledgement is not modelled as traffic,
	// the sender simply knows.
	Sent()
	// Failed runs after the connect timeout when the destination is failed
	// or partitioned away (at send or delivery time) or the message is
	// lost in transit — the sender blocks for the timeout, exactly the
	// behaviour that makes failed interior tree nodes expensive
	// (Section IV).
	Failed()
}

// Transmit models one message from -> to carrying size bytes and reports
// to out. A relay forwards from Arrived; a retry chain resolves from Sent
// or Failed. Sockets and message counters on both meters are maintained
// here so every RM model accounts traffic uniformly.
func (n *Network) Transmit(from, to NodeID, size int, out Outcome) {
	n.send(from, to, size, true, out)
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
	n.send(from, to, size, true, &callbacks{onDelivered, onFailed})
}

// SendPersistent models traffic over an already-established long-lived
// connection (e.g. SGE's persistent execd channels): no connect cost and no
// per-message socket churn — the caller is responsible for having opened
// the socket once. Everything else is exactly Send.
func (n *Network) SendPersistent(from, to NodeID, size int, onDelivered func(), onFailed func()) {
	n.send(from, to, size, false, &callbacks{onDelivered, onFailed})
}

// send is the single wire.
func (n *Network) send(from, to NodeID, size int, connect bool, out Outcome) {
	src, dst := n.cluster.nodes[from], n.cluster.nodes[to]
	src.Meter.CountMessage(true, size)
	if connect {
		src.Meter.OpenSocket()
	}

	f := &flight{n: n, src: src, dst: dst, size: int32(size), connect: connect, out: out}
	if n.unreachable(from, to) || n.lost(n.e, n.cfg.LossProb) {
		n.e.AfterTo(n.cfg.ConnectTimeout, f, flightTimeout)
		return
	}

	factor := n.pathFactor(from, to)
	f.d = scale(n.TransferTime(size), factor)
	if connect {
		f.d += scale(n.cfg.ConnectCost, factor)
	}
	if n.cfg.Jitter > 0 {
		f.d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter) + 1))
	}
	n.e.AfterTo(f.d, f, flightLand)
}

// flight is one message on the wire, one allocated per attempt and owned
// by the Network. It is the handler of every event of the message's life
// (the kinds below), so a message allocates this one small object however
// many events it takes.
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
	flightLand        int32 = iota // the message reaches its destination
	flightTimeout                  // the sender's connect timeout expired
	flightArriveAgain              // a duplicate's landing
)

// HandleEvent implements simnet.Handler.
func (f *flight) HandleEvent(kind int32) {
	switch kind {
	case flightLand:
		f.land()
	case flightTimeout:
		f.timeout()
	case flightArriveAgain:
		f.arriveAgain()
	}
}

// timeout fires when the sender's connect timeout expires on a message
// that never arrived.
func (f *flight) timeout() {
	if f.connect {
		f.src.Meter.CloseSocket()
	}
	f.out.Failed()
}

// land delivers the message. A destination that failed — or was
// partitioned away — while the message was in flight receives nothing, and
// the sender, its socket still held, waits out what remains of its connect
// timeout. Otherwise the receiver books the message, the sender learns it
// landed, the receiver acts on it, and the duplication coin is drawn: a
// retransmission after a lost ack lands the same payload a second time one
// latency later, with no second acknowledgement.
func (f *flight) land() {
	n := f.n
	if n.unreachable(f.src.ID, f.dst.ID) {
		n.e.AfterTo(n.cfg.ConnectTimeout-f.d, f, flightTimeout)
		return
	}
	m := &f.dst.Meter
	m.CountMessage(false, int(f.size))
	if f.connect {
		// The receiving daemon holds its accept socket one latency while
		// processing; the meter is the handler of that close.
		m.OpenSocket()
		n.e.AfterTo(n.cfg.Latency, m, 0)
		f.src.Meter.CloseSocket()
	}
	f.out.Sent()
	f.out.Arrived()
	if n.duplicated(n.e, n.cfg.DupProb) {
		n.e.AfterTo(n.cfg.Latency, f, flightArriveAgain)
	}
}

// arriveAgain is a duplicate's landing: it rides the first landing's
// accept socket, and a destination that has since gone unreachable
// receives nothing.
func (f *flight) arriveAgain() {
	if f.n.unreachable(f.src.ID, f.dst.ID) {
		return
	}
	f.dst.Meter.CountMessage(false, int(f.size))
	f.out.Arrived()
}
