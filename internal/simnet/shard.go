package simnet

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"eslurm/internal/obs"
)

// Shard-parallel execution: one logical simulation partitioned across a
// fixed set of engine cells, each cell's event loop runnable on its own
// goroutine inside a conservative lookahead window, with cross-cell events
// merged at the window barrier in (source cell, send order).
//
// # Cells versus workers
//
// The deterministic unit is the *cell*: a fixed partition of the model
// (racks, in the cluster layer) chosen by the model's topology, never by
// the machine. Each cell owns one Engine and everything scheduled on it.
// The *worker count* — the -shards knob — only decides how many goroutines
// may execute cells inside a window; it is invisible to the model. That
// split is what makes the shard-count invariance contract cheap to honor:
// the per-cell event streams and the cross-cell merge order depend only on
// (seed, topology, lookahead), so the same seed produces byte-identical
// trace digests and metrics at ANY worker count, including the serial
// workers=1 run that executes the very same windowed protocol inline.
//
// # The conservative window
//
// Let L be the lookahead: the minimum cross-cell link latency. A model can
// schedule a cross-cell effect only through SendAfter, which delivers at
// the sender's now + L or later by construction. With T the earliest
// pending event across all cells, every cell can run its events in
// [T, T+L) with no input from any other cell: a cross-cell event emitted
// inside the window is timestamped ≥ T+L, past the window's end. Cells
// therefore execute the window with no synchronization, then meet at a
// barrier where the buffered cross-cell events are scheduled onto their
// destination engines source cell by source cell, each source's in send
// order. Nothing is sorted: a destination's heap orders by (at, seq) and
// assigns seq in insertion order, so events with different times run in
// time order whatever order they were inserted in, and events with equal
// times run in the order inserted — source cell, then send order. The
// merged execution streams are therefore reproducible regardless of which
// goroutine ran which cell when.
//
// # What a window costs
//
// Most windows of a communication-sparse model hold a handful of events,
// and handing those to another goroutine costs more than running them. A
// window goes to the worker pool only when it has work on two or more
// cells and inherits enough of it (dispatchMinWork); every other window
// runs inline on the coordinator, as all of them do at workers=1. A
// dispatched window is self-scheduled: the coordinator publishes its
// bounds, wakes the workers and joins them in claiming cells one at a
// time through an atomic cursor, so a heavy cell never shares a fixed
// stripe with another and the coordinator never parks while a cell is
// left to run.
type ShardGroup struct {
	seed      int64
	lookahead time.Duration
	cells     []*Engine
	workers   int

	// Cross-cell mail. out[src] is appended only by the goroutine
	// executing cell src during a window (or by the coordinating
	// goroutine between runs), and drained by the coordinator at each
	// barrier.
	out [][]crossEvent

	// Per-cell FNV-1a digests over the (at, seq) execution streams,
	// maintained by per-cell observers when digesting is enabled. Written
	// only by the cell's executing goroutine; read at barriers.
	digests   []uint64
	digesting bool

	inWindow bool // true while a window is executing

	// in counts the kernel's own work into cell 0's registry (see
	// shardInstruments); built on the first run, so a group that is only
	// ever driven through its single cell's engine registers nothing.
	in *shardInstruments

	// pool is the window-worker pool: started by the first window a run
	// dispatches, joined when that run returns, nil otherwise — a run in
	// which no window qualifies starts no goroutine.
	pool *shardPool
}

// dispatchMinWork is the least work a window must inherit — cross events
// merged at the barrier that opened it plus events the window before it
// executed — to be handed to the worker pool. Both terms are functions of
// the event streams alone, so the same windows qualify at every worker
// count. The previous window's count predicts a burst under way; the
// merged count catches a burst's first window, the one after a one-event
// tick that fanned out to a thousand nodes.
//
// Measured on fig7f at 1,024 nodes (18 clusters of 3 cells, 446,158
// windows, 11,245,330 events; simnet.window_events): 439,899 windows run
// at most 32 events, 5,380 run more than 512, and 879 fall in between. The
// load is bimodal, so the choice of threshold between the modes hardly
// matters (4,706 windows qualify at 64, 4,526 at 128, 4,448 at 512), and
// what a hand-off costs — wake a parked goroutine, join it: tens of µs,
// some hundred events' worth — lies between the modes too.
const dispatchMinWork = 128

// shardPool is what the coordinator shares with its window workers for
// one run. It writes end and clock and resets next before each wake; the
// wake send and the done receive order those writes, and everything a
// worker wrote to the cells it claimed, against the other side.
type shardPool struct {
	end   time.Duration // events with at < end execute
	clock time.Duration // cell clocks advance to clock afterwards
	next  atomic.Int32  // the next unclaimed cell
	wake  chan struct{} // one token per worker woken for the window
	done  chan struct{} // one token back per wake, and one on exit
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
// lookahead admits no concurrent window) and worker count. workers is
// clamped to [1, cells]; the clamp is deliberate — requesting more workers
// than cells must not change anything, including at cells==1.
//
// Per-cell engine seeds are derived from (seed, cell index) through the
// same FNV construction as Engine.Rand labels, so every cell's labelled
// RNG streams are functions of (root seed, cell, label) alone —
// placement-independent and stable as the model grows.
func NewShardGroup(seed int64, cells int, lookahead time.Duration, workers int) *ShardGroup {
	return newShardGroup(seed, NewEngine(deriveSeed(seed, "shard/cell/0")), cells, lookahead, workers)
}

// GroupAround builds a group whose cell 0 is the engine e, unchanged: its
// seed, streams and schedule are what they were, so a model built on a
// one-cell group around e runs exactly as it does on e alone. Further
// cells derive their seeds from e's seed and their index, as in
// NewShardGroup.
func GroupAround(e *Engine, cells int, lookahead time.Duration, workers int) *ShardGroup {
	return newShardGroup(e.seed, e, cells, lookahead, workers)
}

func newShardGroup(seed int64, cell0 *Engine, cells int, lookahead time.Duration, workers int) *ShardGroup {
	if cells <= 0 {
		panic("simnet: ShardGroup needs at least one cell")
	}
	if lookahead <= 0 {
		panic("simnet: ShardGroup lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > cells {
		workers = cells
	}
	g := &ShardGroup{
		seed:      seed,
		lookahead: lookahead,
		cells:     make([]*Engine, cells),
		workers:   workers,
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

// Workers returns the effective worker count after clamping.
func (g *ShardGroup) Workers() int { return g.workers }

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
// digest at any worker count; that equality is the shard-invariance
// contract the tests pin.
func (g *ShardGroup) Digest() uint64 {
	h := uint64(fnvOffset)
	for i := range g.cells {
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, g.digests[i])
	}
	return h
}

// EnableTracing arms span recording on every cell's engine. Call before
// running. Per-cell recordings are worker-count-invariant for the same
// reason the digests are: each cell's event stream depends only on
// (seed, topology, lookahead), and spans are recorded by the cell that
// executes the instrumented code. Flatten the recordings with
// critpath.FromCells, which resolves the cross-cell "xparent" hand-off
// attributes into one DAG.
func (g *ShardGroup) EnableTracing() {
	for _, c := range g.cells {
		c.EnableTracing()
	}
}

// CellTracers returns each cell's tracer in cell order — the fixed
// model partition, so the slice layout is worker-count-invariant.
// Entries are nil when tracing was never enabled.
func (g *ShardGroup) CellTracers() []*obs.Tracer {
	ts := make([]*obs.Tracer, len(g.cells))
	for i, c := range g.cells {
		ts[i] = c.Tracer()
	}
	return ts
}

// MergedMetrics folds every cell's metrics registry into one fresh
// registry, in cell order. obs.Merge is order-independent, so the merged
// snapshot and its byte-stable text dump are worker-count-invariant —
// the metrics half of the shard-invariance contract.
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

// Idle reports whether no window is executing: the caller is the
// coordinating goroutine between runs, the only place from which state
// on more than one cell may be touched or scheduled.
func (g *ShardGroup) Idle() bool { return !g.inWindow }

func (g *ShardGroup) run(deadline time.Duration) {
	if g.in == nil {
		g.in = newShardInstruments(g.cells[0].Metrics())
	}
	defer g.stopWorkers()
	// Cross-cell events emitted between runs (model wiring done while the
	// group is idle) are merged before the first window.
	work := g.mergeCross()
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
		g.runWindow(end, clock, work)
		n := g.Processed()
		g.in.windowEvents.Observe(int64(n - ran))
		work = int(n-ran) + g.mergeCross()
		ran = n
	}
}

// shardInstruments are the kernel's own counters: how many windows ran,
// how many of them had work on two or more cells (the only ones a second
// worker can help with), how many of those met the dispatch predicate,
// how many events crossed a cell boundary, and the spread of busy cells
// and of executed events per window. All six are functions of the cells'
// event streams, so they are identical at every worker count — one
// included, where a "dispatched" window runs inline like the rest; they
// live in cell 0's registry, touched only by the coordinator between
// windows, and reach MergedMetrics with that cell's other instruments.
type shardInstruments struct {
	windows, multiBusy, dispatched, cross *obs.Counter
	busyCells, windowEvents               *obs.Histogram
}

func newShardInstruments(m *obs.Registry) *shardInstruments {
	return &shardInstruments{
		windows:      m.Counter("simnet.windows"),
		multiBusy:    m.Counter("simnet.windows_multi_busy"),
		dispatched:   m.Counter("simnet.windows_dispatched"),
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

// runWindow executes one conservative window on every cell: events with
// at < end run, clocks advance to clock. work is what the window inherits
// (see dispatchMinWork). A window that cannot repay a hand-off — and every
// window when workers is 1 — runs its cells inline on the calling
// goroutine; the per-cell calls are identical either way, so only
// wall-clock changes, and the inline protocol is the serial reference the
// multi-worker runs must match byte for byte.
func (g *ShardGroup) runWindow(end, clock time.Duration, work int) {
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
		if work >= dispatchMinWork {
			g.in.dispatched.Inc()
			if g.workers > 1 {
				g.dispatch(end, clock, min(g.workers, busy)-1)
				return
			}
		}
	}
	for _, c := range g.cells {
		c.runWindow(end, clock)
	}
}

// dispatch runs one window on the pool, starting it on first use: publish
// the bounds, wake `helpers` workers, claim cells alongside them, and wait
// for each woken worker's token. Before the first send and after the last
// receive the coordinator has the pool and the cells to itself.
func (g *ShardGroup) dispatch(end, clock time.Duration, helpers int) {
	if g.pool == nil {
		g.startWorkers()
	}
	p := g.pool
	p.end, p.clock = end, clock
	p.next.Store(0)
	for w := 0; w < helpers; w++ {
		p.wake <- struct{}{}
	}
	g.claimCells(p)
	for w := 0; w < helpers; w++ {
		<-p.done
	}
}

// startWorkers spawns the workers−1 goroutines that help the coordinator —
// itself worker 0 — for the rest of the run.
func (g *ShardGroup) startWorkers() {
	p := &shardPool{wake: make(chan struct{}, g.workers-1), done: make(chan struct{}, g.workers-1)}
	for w := 1; w < g.workers; w++ {
		//eslurmlint:ignore gosim window workers run cells whose schedules are causally independent until the barrier; the coordinator alone merges, in (src cell, send order), after every woken worker has answered, so interleaving never reaches simulated state
		go g.worker(p)
	}
	g.pool = p
}

// claimCells runs the published window on every cell the caller can claim;
// cells are independent within a window, so who claims which is irrelevant.
func (g *ShardGroup) claimCells(p *shardPool) {
	for i := int(p.next.Add(1)) - 1; i < len(g.cells); i = int(p.next.Add(1)) - 1 {
		g.cells[i].runWindow(p.end, p.clock)
	}
}

// worker claims cells of each window it is woken for until the wake
// channel closes, answering every token with one of its own. The
// receive/send pair is the barrier handoff: everything the worker wrote
// (cell state, out buffers, digests) happens-before the coordinator's
// barrier reads.
func (g *ShardGroup) worker(p *shardPool) {
	for range p.wake {
		g.claimCells(p)
		p.done <- struct{}{}
	}
	p.done <- struct{}{}
}

// stopWorkers joins the pool, if the run started one.
func (g *ShardGroup) stopWorkers() {
	if g.pool == nil {
		return
	}
	close(g.pool.wake)
	for w := 1; w < g.workers; w++ {
		<-g.pool.done
	}
	g.pool = nil
}

// mergeCross drains the per-source cross-event buffers onto their
// destination engines, source cell by source cell, each in send order,
// and returns how many events it moved. The destinations execute them by
// (at, src cell, send order) with no sort here: see "The conservative
// window" above.
func (g *ShardGroup) mergeCross() int {
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
	return n
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
