package simnet

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"time"

	"eslurm/internal/obs"
)

// Shard-parallel execution: one logical simulation partitioned across a
// fixed set of engine cells, each cell's event loop runnable on its own
// goroutine inside a conservative lookahead window, with cross-cell events
// merged through a deterministic (time, source cell, sequence) order.
//
// # Cells versus workers
//
// The deterministic unit is the *cell*: a fixed partition of the model
// (racks, in the cluster layer) chosen by the model's topology, never by
// the machine. Each cell owns one Engine and everything scheduled on it.
// The *worker count* — the -shards knob — only decides how many goroutines
// execute cells inside a window; it is invisible to the model. That split
// is what makes the shard-count invariance contract cheap to honor: the
// per-cell event streams and the cross-cell merge order depend only on
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
// inside the window is timestamped ≥ T+L, past the window's end. Cells therefore execute the
// window concurrently with no synchronization, then meet at a barrier
// where buffered cross-cell events are sorted by (time, src cell, src seq)
// and scheduled onto their destination engines in that order. Destination
// sequence numbers are assigned during that deterministic sweep, so the
// merged (at, seq) execution streams are reproducible regardless of which
// goroutine ran which cell when.
type ShardGroup struct {
	seed      int64
	lookahead time.Duration
	cells     []*Engine
	workers   int

	// Cross-cell mail. out[src] is appended only by the goroutine
	// executing cell src during a window (or by the coordinating
	// goroutine between runs), and drained by the coordinator at each
	// barrier; seqs[src] is the per-source-cell send sequence that breaks
	// (time, src) ties.
	out  [][]crossEvent
	seqs []uint64

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

	// merged is the reusable barrier scratch buffer mergeCross gathers
	// cross events into before sorting. Windows fire millions of times per
	// run, so reusing the slice keeps the barrier allocation-free once the
	// buffer has grown to the largest batch seen.
	merged []crossEvent

	// pool is the persistent window-worker pool, alive for the duration of
	// one RunUntil call (nil while idle and in workers==1 mode). Spawning
	// workers once per run instead of once per window matters: windows are
	// short (one lookahead of virtual time), and models run millions of
	// them.
	pool *shardPool
}

// shardPool is the per-RunUntil worker state: one command channel per
// worker, the static cell→worker stripes, and the barrier channel.
type shardPool struct {
	cmds    []chan shardCmd
	done    chan shardDone
	stripes [][]*Engine
}

// shardDone is the barrier completion token a worker sends after each
// window (and once on exit). A dedicated type, not a bare int, so the
// engineown exemption for the barrier handoff stays typed: only the
// sanctioned shardCmd/shardDone channels may cross the coordinator ↔
// worker boundary.
type shardDone struct{}

// crossEvent is one buffered cross-cell event awaiting the barrier merge.
type crossEvent struct {
	at       time.Duration
	seq      uint64
	h        Handler
	src, dst int32
	kind     int32
}

// shardCmd is one window assignment handed to a worker goroutine: the
// cells it executes this window and the half-open window bounds. This
// channel payload carries engine-owned state across goroutines by design;
// together with shardDone it forms the sanctioned barrier handoff, and
// the engineown analyzer exempts exactly these types (see
// internal/lint/engineown.go).
type shardCmd struct {
	cells []*Engine
	end   time.Duration // events with at < end execute
	clock time.Duration // cell clocks advance to clock afterwards
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
		seqs:      make([]uint64, cells),
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
// Delivery order is deterministic: buffered cross-cell events are merged
// at each window barrier sorted by (time, src cell, per-source sequence),
// and scheduled onto the destination engine in that order.
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
	g.seqs[src]++
	g.out[src] = append(g.out[src], crossEvent{at: at, seq: g.seqs[src], h: h, src: int32(src), dst: int32(dst), kind: kind})
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
	// Cross-cell events emitted between runs (model wiring done while the
	// group is idle) are merged before the first window.
	g.mergeCross()
	if g.workers > 1 {
		g.startWorkers()
		defer g.stopWorkers()
	}
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
		g.mergeCross()
	}
}

// shardInstruments are the kernel's own counters: how many windows ran,
// how many of them had work on two or more cells (the only ones a second
// worker can help with), how many events crossed a cell boundary, and the
// spread of busy cells per window. All four are functions of the cells'
// event streams, so they are identical at every worker count; they live
// in cell 0's registry, touched only by the coordinator between windows,
// and reach MergedMetrics with the rest of that cell's instruments.
type shardInstruments struct {
	windows, multiBusy, cross *obs.Counter
	busyCells                 *obs.Histogram
}

func newShardInstruments(m *obs.Registry) *shardInstruments {
	return &shardInstruments{
		windows:   m.Counter("simnet.windows"),
		multiBusy: m.Counter("simnet.windows_multi_busy"),
		cross:     m.Counter("simnet.cross_events"),
		busyCells: m.Histogram("simnet.window_busy_cells", []int64{1, 2, 4, 8, 16, 32}),
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

// startWorkers spawns the persistent window workers for one RunUntil
// call, with static cell→worker striping (cell i runs on worker
// i%workers). The assignment is irrelevant to the result (cells are
// independent within a window) but keeping it static makes scheduling
// overhead stable.
func (g *ShardGroup) startWorkers() {
	p := &shardPool{
		cmds:    make([]chan shardCmd, g.workers),
		done:    make(chan shardDone, g.workers),
		stripes: make([][]*Engine, g.workers),
	}
	for w := 0; w < g.workers; w++ {
		for i := w; i < len(g.cells); i += g.workers {
			p.stripes[w] = append(p.stripes[w], g.cells[i])
		}
		p.cmds[w] = make(chan shardCmd, 1)
		//eslurmlint:ignore gosim window workers run cells whose schedules are causally independent until the barrier; the merge order is fixed by (time, src cell, seq), so interleaving never reaches simulated state
		go g.worker(p.cmds[w], p.done)
	}
	g.pool = p
}

// stopWorkers closes the command channels and joins the workers.
func (g *ShardGroup) stopWorkers() {
	for _, ch := range g.pool.cmds {
		close(ch)
	}
	for range g.pool.cmds {
		<-g.pool.done
	}
	g.pool = nil
}

// runWindow executes one conservative window on every cell: events with
// at < end run, clocks advance to clock. With one worker the cells run
// inline on the calling goroutine — the identical protocol, minus the
// goroutines — which is both the fast path on small models and the
// serial reference the multi-worker runs must match byte for byte.
//
// In multi-worker mode, windows where at most one cell actually has
// events also run inline: the per-cell calls are identical either way,
// so only wall-clock changes, and most windows in communication-sparse
// phases are single-cell. The coordinator may touch cells directly here
// because the previous window's barrier receive happens-before this, and
// the next command send happens-after.
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
		if g.workers > 1 {
			for w := range g.pool.cmds {
				g.pool.cmds[w] <- shardCmd{cells: g.pool.stripes[w], end: end, clock: clock}
			}
			for range g.pool.cmds {
				<-g.pool.done
			}
			return
		}
	}
	for _, c := range g.cells {
		c.runWindow(end, clock)
	}
}

// worker executes window assignments until its command channel closes,
// signalling the barrier after each. The channel receive/send pair is
// the barrier handoff: everything the worker wrote (cell state, out
// buffers, digests) happens-before the coordinator's barrier reads.
func (g *ShardGroup) worker(cmds chan shardCmd, done chan<- shardDone) {
	for cmd := range cmds {
		for _, c := range cmd.cells {
			c.runWindow(cmd.end, cmd.clock)
		}
		done <- shardDone{}
	}
	done <- shardDone{}
}

// mergeCross drains the per-source cross-event buffers, sorts them by
// (time, src cell, src seq), and schedules them onto their destination
// engines in that order — the deterministic merge that assigns
// destination sequence numbers identically at every worker count.
func (g *ShardGroup) mergeCross() {
	all := g.merged[:0]
	for src := range g.out {
		all = append(all, g.out[src]...)
		g.out[src] = g.out[src][:0]
	}
	g.merged = all[:0]
	if len(all) == 0 {
		return
	}
	g.in.cross.Add(int64(len(all)))
	sortCross(all)
	for i := range all {
		g.cells[all[i].dst].ScheduleTo(all[i].at, all[i].h, all[i].kind)
		all[i].h = nil // release the handler; the scratch buffer outlives the window
	}
}

// sortCross sorts by (at, src, seq). The key is a total order — seq is
// unique per src — so any comparison sort yields the same permutation;
// slices.SortFunc keeps broadcast-burst barriers (thousands of cross events
// in one window) out of quadratic territory and, unlike sort.Slice, builds
// no swapper or closure per barrier.
func sortCross(a []crossEvent) { slices.SortFunc(a, compareCross) }

func compareCross(x, y crossEvent) int {
	if c := cmp.Compare(x.at, y.at); c != 0 {
		return c
	}
	if c := cmp.Compare(x.src, y.src); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
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
