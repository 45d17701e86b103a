package simnet

import (
	"math"
	"strconv"
	"time"

	"eslurm/internal/obs"
)

// Partitioned execution: one logical simulation partitioned across a
// fixed set of engine cells that advance together through conservative
// lookahead windows, with cross-cell events merged at each window barrier
// in (source cell, send order).
//
// # Cells
//
// The deterministic unit is the *cell*: a fixed partition of the model
// (racks, in the cluster layer) chosen by the model's topology, never by
// the machine. Each cell owns one Engine and everything scheduled on it.
// The per-cell event streams and the cross-cell merge order depend only on
// (seed, topology, lookahead), so the same seed produces byte-identical
// trace digests and metrics on every run.
//
// # The conservative window
//
// Let L be the lookahead: the minimum cross-cell link latency. A model can
// schedule a cross-cell effect only through SendAfter, which delivers at
// the sender's now + L or later by construction. With T the earliest
// pending event across all cells, every cell can run its events in
// [T, T+L) with no input from any other cell: a cross-cell event emitted
// inside the window is timestamped ≥ T+L, past the window's end. Cells
// therefore execute the window independently, then meet at a barrier where
// the buffered cross-cell events are scheduled onto their destination
// engines source cell by source cell, each source's in send order. Nothing
// is sorted: a destination's heap orders by (at, seq) and assigns seq in
// insertion order, so events with different times run in time order
// whatever order they were inserted in, and events with equal times run in
// the order inserted — source cell, then send order.
//
// # One goroutine
//
// The cells of a window run one after another on the calling goroutine.
// The window protocol is what makes a partitioned run prove locality —
// nothing a cell does reaches another cell sooner than one link latency —
// and it needs no second goroutine to do that. DESIGN.md §4 ("Why one
// goroutine") says why cells do not run in parallel and what workload
// would justify it.
type ShardGroup struct {
	seed      int64
	lookahead time.Duration
	cells     []*Engine

	// Cross-cell mail: out[src] collects what cell src sent during a
	// window (or between runs), drained at the next barrier.
	out [][]crossEvent

	// Per-cell FNV-1a digests over the (at, seq) execution streams,
	// maintained by per-cell observers when digesting is enabled.
	digests   []uint64
	digesting bool

	inWindow bool // true while a window is executing

	// in counts the kernel's own work into cell 0's registry (see
	// shardInstruments); built on the first run, so a group that is only
	// ever driven through its single cell's engine registers nothing.
	in *shardInstruments
}

// crossEvent is one buffered cross-cell event awaiting the barrier merge.
type crossEvent struct {
	at   time.Duration
	h    Handler
	dst  int32
	kind int32
}

// NewShardGroup builds a group of `cells` engines sharing one root seed,
// with the given conservative lookahead (must be positive: a zero
// lookahead admits no window).
//
// Per-cell engine seeds are derived from (seed, cell index) through the
// same FNV construction as Engine.Rand labels, so every cell's labelled
// RNG streams are functions of (root seed, cell, label) alone —
// placement-independent and stable as the model grows.
func NewShardGroup(seed int64, cells int, lookahead time.Duration) *ShardGroup {
	return newShardGroup(seed, NewEngine(deriveSeed(seed, "shard/cell/0")), cells, lookahead)
}

// GroupAround builds a group whose cell 0 is the engine e, unchanged: its
// seed, streams and schedule are what they were, so a model built on a
// one-cell group around e runs exactly as it does on e alone. Further
// cells derive their seeds from e's seed and their index, as in
// NewShardGroup.
func GroupAround(e *Engine, cells int, lookahead time.Duration) *ShardGroup {
	return newShardGroup(e.seed, e, cells, lookahead)
}

func newShardGroup(seed int64, cell0 *Engine, cells int, lookahead time.Duration) *ShardGroup {
	if cells <= 0 {
		panic("simnet: ShardGroup needs at least one cell")
	}
	if lookahead <= 0 {
		panic("simnet: ShardGroup lookahead must be positive")
	}
	g := &ShardGroup{
		seed:      seed,
		lookahead: lookahead,
		cells:     make([]*Engine, cells),
		out:       make([][]crossEvent, cells),
		digests:   make([]uint64, cells),
	}
	g.cells[0] = cell0
	for i := 1; i < cells; i++ {
		g.cells[i] = NewEngine(deriveSeed(seed, "shard/cell/"+strconv.Itoa(i)))
	}
	return g
}

// Seed returns the group's root seed.
func (g *ShardGroup) Seed() int64 { return g.seed }

// Cells returns the number of cells (the fixed logical partition).
func (g *ShardGroup) Cells() int { return len(g.cells) }

// Lookahead returns the conservative window bound.
func (g *ShardGroup) Lookahead() time.Duration { return g.lookahead }

// Cell returns cell i's engine. Scheduling directly on a cell is the
// sanctioned way to install model state and control events before a run;
// during a run, only the cell's own events may touch it.
func (g *ShardGroup) Cell(i int) *Engine { return g.cells[i] }

// Processed sums executed events across all cells.
func (g *ShardGroup) Processed() uint64 {
	var n uint64
	for _, c := range g.cells {
		n += c.Processed()
	}
	return n
}

// SendAfterTo delivers kind to h on cell dst at the source cell's current
// time plus the group lookahead plus extra — for same-cell and cross-cell
// sends alike, so a model's timing never depends on where the partition
// boundary falls. A caller cannot name an absolute delivery time: the
// lookahead is added here, which makes the conservative window's
// invariant (no cross-cell effect lands inside a window already
// executing) hold by construction. The one misuse left is a negative
// extra, and it panics.
//
// Delivery order is deterministic: a destination runs the events merged
// at a window barrier by time, then source cell, then the order in which
// that source sent them.
func (g *ShardGroup) SendAfterTo(src, dst int, extra time.Duration, h Handler, kind int32) {
	if extra < 0 {
		panic("simnet: SendAfter with a negative extra delay would deliver inside the lookahead window")
	}
	e := g.cells[src]
	at := e.now + g.lookahead + extra
	if dst == src {
		e.ScheduleTo(at, h, kind)
		return
	}
	g.out[src] = append(g.out[src], crossEvent{at: at, h: h, dst: int32(dst), kind: kind})
}

// SendAfter is SendAfterTo for a plain func().
func (g *ShardGroup) SendAfter(src, dst int, extra time.Duration, fn func()) {
	g.SendAfterTo(src, dst, extra, funcHandler(fn), 0)
}

// EnableDigest arms per-cell (at, seq) execution-trace digests (FNV-1a).
// It claims each cell's single Observe slot. Call before running.
func (g *ShardGroup) EnableDigest() {
	if g.digesting {
		return
	}
	g.digesting = true
	for i, c := range g.cells {
		i := i
		c.Observe(func(at time.Duration, seq uint64) {
			g.digests[i] = fnvMix(fnvMix(g.digests[i], uint64(at)), seq)
		})
	}
	for i := range g.digests {
		g.digests[i] = fnvOffset
	}
}

// Digest folds the per-cell execution-stream digests into one value, in
// cell order. Two runs of the same seed and topology produce the same
// digest; the tests pin it.
func (g *ShardGroup) Digest() uint64 {
	h := uint64(fnvOffset)
	for i := range g.cells {
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, g.digests[i])
	}
	return h
}

// EnableTracing arms span recording on every cell's engine. Call before
// running. Per-cell recordings are reproducible for the same reason the
// digests are: each cell's event stream depends only on (seed, topology,
// lookahead), and spans are recorded by the cell that executes the
// instrumented code. Flatten the recordings with
// critpath.FromCells, which resolves the cross-cell "xparent" hand-off
// attributes into one DAG.
func (g *ShardGroup) EnableTracing() {
	for _, c := range g.cells {
		c.EnableTracing()
	}
}

// CellTracers returns each cell's tracer in cell order — the fixed
// model partition. Entries are nil when tracing was never enabled.
func (g *ShardGroup) CellTracers() []*obs.Tracer {
	ts := make([]*obs.Tracer, len(g.cells))
	for i, c := range g.cells {
		ts[i] = c.Tracer()
	}
	return ts
}

// MergedMetrics folds every cell's metrics registry into one fresh
// registry, in cell order. obs.Merge is order-independent, and the
// merged snapshot's text dump is byte-stable.
func (g *ShardGroup) MergedMetrics() *obs.Registry {
	m := obs.NewRegistry()
	for _, c := range g.cells {
		m.Merge(c.Metrics())
	}
	return m
}

// RunUntil executes the group's events with time ≤ deadline under the
// conservative window protocol, then advances every cell's clock to the
// deadline. It is the sharded counterpart of Engine.RunUntil and may be
// called repeatedly to drive a simulation in phases.
func (g *ShardGroup) RunUntil(deadline time.Duration) {
	g.run(deadline)
	for _, c := range g.cells {
		if c.now < deadline {
			c.now = deadline
		}
	}
}

// Run executes windows until no cell has an event left — the sharded
// counterpart of Engine.Run. Cell clocks stay where their windows left
// them.
func (g *ShardGroup) Run() { g.run(math.MaxInt64) }

// Idle reports whether no window is executing: the caller stands between
// runs, the only place from which state on more than one cell may be
// touched or scheduled.
func (g *ShardGroup) Idle() bool { return !g.inWindow }

func (g *ShardGroup) run(deadline time.Duration) {
	if g.in == nil {
		g.in = newShardInstruments(g.cells[0].Metrics())
	}
	// Cross-cell events emitted between runs (model wiring done while the
	// group is idle) are merged before the first window.
	g.mergeCross()
	ran := g.Processed()
	for {
		t, ok := g.earliest()
		if !ok || t > deadline {
			break
		}
		end := t + g.lookahead
		clock := end
		if end > deadline {
			// Final window of this run: execute everything ≤ deadline (the
			// half-open window [t, deadline+1) admits at == deadline) but
			// leave the clocks at the deadline itself. Merged cross events
			// are still safe: they are stamped ≥ t+lookahead > deadline.
			end = deadline + 1
			clock = deadline
		}
		g.runWindow(end, clock)
		n := g.Processed()
		g.in.windowEvents.Observe(int64(n - ran))
		g.mergeCross()
		ran = n
	}
}

// shardInstruments are the kernel's own counters: how many windows ran,
// how many of them had work on two or more cells (the windows a second
// core could have shared), how many events crossed a cell boundary, and
// the spread of busy cells and of executed events per window — how much
// parallelism the partitioned model exposes. All five are functions of
// the cells' event streams; they live in cell 0's registry, touched only
// between windows, and reach MergedMetrics with that cell's other
// instruments.
type shardInstruments struct {
	windows, multiBusy, cross *obs.Counter
	busyCells, windowEvents   *obs.Histogram
}

func newShardInstruments(m *obs.Registry) *shardInstruments {
	return &shardInstruments{
		windows:      m.Counter("simnet.windows"),
		multiBusy:    m.Counter("simnet.windows_multi_busy"),
		cross:        m.Counter("simnet.cross_events"),
		busyCells:    m.Histogram("simnet.window_busy_cells", []int64{1, 2, 4, 8, 16, 32}),
		windowEvents: m.Histogram("simnet.window_events", []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}),
	}
}

// earliest returns the earliest pending event time across cells.
func (g *ShardGroup) earliest() (time.Duration, bool) {
	var t time.Duration
	found := false
	for _, c := range g.cells {
		if at, ok := c.peekNext(); ok && (!found || at < t) {
			t, found = at, true
		}
	}
	return t, found
}

// runWindow executes one conservative window on every cell, in cell
// order: events with at < end run, clocks advance to clock.
func (g *ShardGroup) runWindow(end, clock time.Duration) {
	g.inWindow = true
	defer func() { g.inWindow = false }()
	busy := 0
	for _, c := range g.cells {
		if at, ok := c.peekNext(); ok && at < end {
			busy++
		}
	}
	g.in.windows.Inc()
	g.in.busyCells.Observe(int64(busy))
	if busy > 1 {
		g.in.multiBusy.Inc()
	}
	for _, c := range g.cells {
		c.runWindow(end, clock)
	}
}

// mergeCross drains the per-source cross-event buffers onto their
// destination engines, source cell by source cell, each in send order.
// The destinations execute them by (at, src cell, send order) with no sort
// here: see "The conservative window" above.
func (g *ShardGroup) mergeCross() {
	n := 0
	for src, out := range g.out {
		for i := range out {
			g.cells[out[i].dst].ScheduleTo(out[i].at, out[i].h, out[i].kind)
			out[i].h = nil // release the handler; the buffer outlives the window
		}
		n += len(out)
		g.out[src] = out[:0]
	}
	g.in.cross.Add(int64(n))
}

// runWindow executes this engine's events with at < end, then advances
// the clock to clock (≤ end on deadline-capped final windows). It is the
// per-cell kernel of the conservative window protocol.
func (e *Engine) runWindow(end, clock time.Duration) {
	for {
		for len(e.events) > 0 && e.events[0].ev.canceled {
			e.canceled--
			e.recycle(e.popMin())
		}
		if len(e.events) == 0 || e.events[0].at >= end {
			break
		}
		e.Step()
	}
	if e.now < clock {
		e.now = clock
	}
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

// FNV-1a mixing for the digest streams.
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
