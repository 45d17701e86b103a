package cluster

import (
	"math/rand"
	"time"
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
//     to and from it are inflated by its factor;
//   - a degraded link (SetLinkDegrade) multiplies that link's transfer time.
//
// All randomness is drawn from named simnet streams, so any configuration
// is bit-deterministic per seed, and disabled features draw nothing.
type Network struct {
	cluster *Cluster
	cfg     NetConfig
	rng     *rand.Rand
	faults  faultState

	deliverObs func(from, to NodeID, size int)
}

func newNetwork(c *Cluster, cfg NetConfig) *Network {
	return &Network{cluster: c, cfg: cfg.withDefaults(), rng: c.Engine.Rand("cluster/network")}
}

// Config returns the effective network configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// OnDeliver registers an observer invoked at the virtual instant of every
// successful delivery (duplicates included), before the receiver's
// callback runs. One observer at a time; nil clears. The observer must
// not schedule events, so registering one never perturbs the event trace.
func (n *Network) OnDeliver(fn func(from, to NodeID, size int)) { n.deliverObs = fn }

// SetGray marks a node as a gray failure: alive, but every connect and
// transfer involving it is multiplied by factor (> 1). A factor <= 1
// clears the mark.
func (n *Network) SetGray(id NodeID, factor float64) { n.faults.setGray(id, factor) }

// ClearGray removes a node's gray-failure mark.
func (n *Network) ClearGray(id NodeID) { n.faults.setGray(id, 1) }

// GrayFactor returns the node's slowdown factor (1 when healthy).
func (n *Network) GrayFactor(id NodeID) float64 { return n.faults.grayFactor(id) }

// GrayCount returns the number of currently gray nodes.
func (n *Network) GrayCount() int { return len(n.faults.gray) }

// SetLinkDegrade multiplies the directed link's transfer time by factor
// (> 1). A factor <= 1 restores the link.
func (n *Network) SetLinkDegrade(from, to NodeID, factor float64) {
	n.faults.setDegrade(from, to, factor)
}

// Partition severs the member set from the rest of the cluster starting
// now: messages between a member and a non-member fail with the connect
// timeout in both directions; traffic within either side is unaffected.
// If heal > 0 the partition heals after that long; otherwise it stays
// until HealAll. Partitions compose: a link is severed if any active
// partition separates its endpoints.
func (n *Network) Partition(members []NodeID, heal time.Duration) {
	p := &partition{member: make(map[NodeID]bool, len(members))}
	for _, id := range members {
		p.member[id] = true
	}
	n.faults.sever(p)
	if heal > 0 {
		n.cluster.Engine.After(heal, func() { n.faults.heal(p) })
	}
}

// HealAll removes every active partition.
func (n *Network) HealAll() { n.faults.partitions = nil }

// PartitionCount returns the number of active partitions.
func (n *Network) PartitionCount() int { return len(n.faults.partitions) }

// Severed reports whether an active partition separates the two nodes.
func (n *Network) Severed(from, to NodeID) bool { return n.faults.severed(from, to) }

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

func (n *Network) lost() bool { return n.faults.lost(n.cluster.Engine, n.cfg.LossProb) }

func (n *Network) duplicated() bool { return n.faults.duplicated(n.cluster.Engine, n.cfg.DupProb) }

// unreachable reports whether a message from→to cannot be delivered right
// now: the destination is dead or a partition separates the endpoints.
func (n *Network) unreachable(from, to NodeID) bool {
	return n.cluster.Node(to).failed || n.faults.severed(from, to)
}

// Send models one message from -> to carrying size bytes.
//
// If the destination is reachable at delivery time, onDelivered fires at
// the delivery instant (twice under duplication — receivers dedup). If
// the destination is failed or partitioned away (at send or delivery
// time), or the message is lost in transit, onFailed fires after the
// connect timeout — the sender blocks for the timeout, exactly the
// behaviour that makes failed interior tree nodes expensive (Section IV).
// Either callback may be nil. Sockets and message counters on both meters
// are maintained here so every RM model accounts traffic uniformly.
func (n *Network) Send(from, to NodeID, size int, onDelivered func(), onFailed func()) {
	e := n.cluster.Engine
	src := n.cluster.Node(from)
	src.Meter.CountMessage(true, size)
	src.Meter.OpenSocket()

	f := &flight{n: n, from: from, to: to, size: size, onDelivered: onDelivered, onFailed: onFailed}
	if n.unreachable(from, to) || n.lost() {
		e.After(n.cfg.ConnectTimeout, f.timeout)
		return
	}

	factor := n.faults.pathFactor(from, to)
	f.d = scale(n.cfg.ConnectCost, factor) + scale(n.TransferTime(size), factor)
	if n.cfg.Jitter > 0 {
		f.d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter) + 1))
	}
	e.After(f.d, f.land)
}

// flight is one message of Send on the wire. Its methods are the events
// of the message's life, so a message allocates one small object however
// many events it takes.
type flight struct {
	n                     *Network
	from, to              NodeID
	size                  int
	d                     time.Duration // modelled delivery time
	onDelivered, onFailed func()
}

// timeout fires when the sender's connect timeout expires on a message
// that never arrived.
func (f *flight) timeout() {
	f.n.cluster.Node(f.from).Meter.CloseSocket()
	if f.onFailed != nil {
		f.onFailed()
	}
}

// land fires at the delivery instant.
func (f *flight) land() {
	n, e := f.n, f.n.cluster.Engine
	// The destination may have failed — or been partitioned away —
	// while the message was in flight.
	if n.unreachable(f.from, f.to) {
		// Remaining time until the sender's timeout expires.
		e.After(n.cfg.ConnectTimeout-f.d, f.timeout)
		return
	}
	dst := n.cluster.Node(f.to)
	dst.Meter.CountMessage(false, f.size)
	dst.Meter.OpenSocket()
	n.cluster.Node(f.from).Meter.CloseSocket()
	// The receiving daemon holds its accept socket briefly while
	// processing.
	e.After(n.cfg.Latency, dst.Meter.CloseSocket)
	if n.deliverObs != nil {
		n.deliverObs(f.from, f.to, f.size)
	}
	if f.onDelivered != nil {
		f.onDelivered()
	}
	if n.duplicated() {
		// Retransmission after a lost ack: the same payload lands a
		// second time one latency later. No socket churn — the
		// duplicate rides the same accept — but the receiver's message
		// counter and callback both fire again.
		e.After(n.cfg.Latency, f.landAgain)
	}
}

func (f *flight) landAgain() {
	n := f.n
	if n.unreachable(f.from, f.to) {
		return
	}
	n.cluster.Node(f.to).Meter.CountMessage(false, f.size)
	if n.deliverObs != nil {
		n.deliverObs(f.from, f.to, f.size)
	}
	if f.onDelivered != nil {
		f.onDelivered()
	}
}

// SendPersistent models traffic over an already-established long-lived
// connection (e.g. SGE's persistent execd channels): no connect cost and no
// per-message socket churn — the caller is responsible for having opened
// the socket once. The adversarial model (loss, duplication, partitions,
// gray slowdown) applies exactly as in Send.
func (n *Network) SendPersistent(from, to NodeID, size int, onDelivered func(), onFailed func()) {
	e := n.cluster.Engine
	src := n.cluster.Node(from)
	dst := n.cluster.Node(to)
	src.Meter.CountMessage(true, size)

	fail := func(after time.Duration) {
		e.After(after, func() {
			if onFailed != nil {
				onFailed()
			}
		})
	}

	if n.unreachable(from, to) || n.lost() {
		fail(n.cfg.ConnectTimeout)
		return
	}
	d := scale(n.TransferTime(size), n.faults.pathFactor(from, to))
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter) + 1))
	}
	e.After(d, func() {
		if n.unreachable(from, to) {
			if onFailed != nil {
				onFailed()
			}
			return
		}
		dst.Meter.CountMessage(false, size)
		if n.deliverObs != nil {
			n.deliverObs(from, to, size)
		}
		if onDelivered != nil {
			onDelivered()
		}
		if n.duplicated() {
			e.After(n.cfg.Latency, func() {
				if n.unreachable(from, to) {
					return
				}
				dst.Meter.CountMessage(false, size)
				if n.deliverObs != nil {
					n.deliverObs(from, to, size)
				}
				if onDelivered != nil {
					onDelivered()
				}
			})
		}
	})
}
