package cluster

import (
	"math"
	"math/bits"
	"time"

	"eslurm/internal/simnet"
)

// ResourceMeter meters the master and satellite daemons in the four
// resource dimensions the paper reports for them: CPU time, virtual
// memory, resident (real) memory, and concurrent TCP sockets (Fig. 7,
// Fig. 9, Tables V–VI).
//
// RMs charge the meter as they process messages and scheduling events; the
// per-event costs live in the RM models, not here. A meter has no clock of
// its own: the calls that integrate the socket count take the virtual
// time now, so a meter is a plain value that points at nothing. A compute
// node has no meter (Cluster.Meter returns nil), and the recording methods
// ChargeCPU, CountMessage, OpenSocket and CloseSocket do nothing on a nil
// meter.
type ResourceMeter struct {
	cpuTime     time.Duration
	vmemBytes   int64
	rssBytes    int64
	sockets     int32
	peakSockets int32
	// sockNanos is the socket count integrated over virtual time, in
	// socket-nanoseconds: average-concurrent-socket reporting (Table V)
	// without storing a full time series. A uint64 holds 20,480 sockets
	// for ten days (1.77e19 of 1.84e19); past that the sum saturates.
	sockNanos   uint64
	lastSockAt  time.Duration
	messagesIn  int64
	messagesOut int64
}

// ChargeCPU adds d of daemon CPU time.
func (m *ResourceMeter) ChargeCPU(d time.Duration) {
	if m != nil && d > 0 {
		m.cpuTime += d
	}
}

// CPUTime returns accumulated daemon CPU time.
func (m *ResourceMeter) CPUTime() time.Duration { return m.cpuTime }

// AddVMem grows (or with negative delta, shrinks) the daemon's virtual
// memory. Virtual memory in real RMs rarely shrinks; callers model that.
func (m *ResourceMeter) AddVMem(delta int64) {
	m.vmemBytes += delta
	if m.vmemBytes < 0 {
		m.vmemBytes = 0
	}
}

// VMem returns current virtual memory in bytes.
func (m *ResourceMeter) VMem() int64 { return m.vmemBytes }

// AddRSS grows or shrinks resident memory.
func (m *ResourceMeter) AddRSS(delta int64) {
	m.rssBytes += delta
	if m.rssBytes < 0 {
		m.rssBytes = 0
	}
}

// RSS returns current resident memory in bytes.
func (m *ResourceMeter) RSS() int64 { return m.rssBytes }

// integrateSockets adds the socket count's time integral up to now,
// exactly, in integer socket-nanoseconds.
func (m *ResourceMeter) integrateSockets(now time.Duration) {
	hi, term := bits.Mul64(uint64(m.sockets), uint64(now-m.lastSockAt))
	sum, carry := bits.Add64(m.sockNanos, term, 0)
	if hi|carry != 0 {
		sum = math.MaxUint64
	}
	m.sockNanos = sum
	m.lastSockAt = now
}

// OpenSocket records one more concurrent TCP connection at virtual time
// now.
func (m *ResourceMeter) OpenSocket(now time.Duration) {
	if m == nil {
		return
	}
	m.integrateSockets(now)
	m.sockets++
	if m.sockets > m.peakSockets {
		m.peakSockets = m.sockets
	}
}

// CloseSocket records one fewer concurrent connection at virtual time now.
// Closing below zero is clamped: it indicates a modelling bug upstream but
// must not corrupt long experiment runs.
func (m *ResourceMeter) CloseSocket(now time.Duration) {
	if m == nil {
		return
	}
	m.integrateSockets(now)
	if m.sockets > 0 {
		m.sockets--
	}
}

// Sockets returns the current number of concurrent connections.
func (m *ResourceMeter) Sockets() int { return int(m.sockets) }

// PeakSockets returns the maximum concurrent connections observed.
func (m *ResourceMeter) PeakSockets() int { return int(m.peakSockets) }

// AvgSockets returns the time-weighted average concurrent socket count over
// the meter's lifetime up to virtual time now (Table V's "average
// concurrent sockets").
func (m *ResourceMeter) AvgSockets(now time.Duration) float64 {
	m.integrateSockets(now)
	if now <= 0 {
		return float64(m.sockets)
	}
	return float64(m.sockNanos) / float64(now)
}

// CountMessage records one sent (out) or received message.
func (m *ResourceMeter) CountMessage(out bool) {
	if m == nil {
		return
	}
	if out {
		m.messagesOut++
	} else {
		m.messagesIn++
	}
}

// Messages returns (in, out) message counts.
func (m *ResourceMeter) Messages() (in, out int64) { return m.messagesIn, m.messagesOut }

// Snapshot is a point-in-time reading of a meter, used by samplers to build
// the time series behind Figs. 7 and 9.
type Snapshot struct {
	At      time.Duration
	CPUTime time.Duration
	VMem    int64
	RSS     int64
	Sockets int
}

// Read returns the meter's snapshot at virtual time now.
func (m *ResourceMeter) Read(now time.Duration) Snapshot {
	return Snapshot{At: now, CPUTime: m.cpuTime, VMem: m.vmemBytes, RSS: m.rssBytes, Sockets: int(m.sockets)}
}

// Sampler periodically snapshots a meter. The paper samples once per
// second for 24 hours; at cluster-experiment scale we usually sample more
// coarsely and interpolate, so the interval is a parameter.
type Sampler struct {
	Samples []Snapshot
	ticker  *simnet.Ticker
}

// NewSampler starts sampling meter every interval on engine e.
func NewSampler(e *simnet.Engine, m *ResourceMeter, interval time.Duration) *Sampler {
	s := &Sampler{}
	s.ticker = e.Every(interval, func() {
		s.Samples = append(s.Samples, m.Read(e.Now()))
	})
	return s
}

// Stop halts sampling.
func (s *Sampler) Stop() { s.ticker.Stop() }
