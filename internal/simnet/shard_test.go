package simnet

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardTraffic drives a synthetic relay model on a ShardGroup: every cell
// seeds a few initial events, and each event draws from the cell's
// labelled RNG stream, bumps a per-cell counter, and relays work to the
// next cell jitter past the lookahead for a fixed number of hops. The model
// exercises same-cell scheduling, cross-cell sends, and RNG draws; its
// digest is the reference the worker-sweep pins.
func shardTraffic(g *ShardGroup, hops int) *[]uint64 {
	counts := make([]uint64, g.Cells())
	var relay func(cell, hop int)
	relay = func(cell, hop int) {
		e := g.Cell(cell)
		counts[cell]++
		// A same-cell follow-up with an RNG-chosen offset.
		d := time.Duration(e.Rand("traffic/local").Intn(50)+1) * time.Microsecond
		e.After(d, func() { counts[cell]++ })
		if hop >= hops {
			return
		}
		next := (cell + 1) % g.Cells()
		jitter := time.Duration(e.Rand("traffic/cross").Intn(200)) * time.Microsecond
		g.SendAfter(cell, next, jitter, func() { relay(next, hop+1) })
	}
	for c := 0; c < g.Cells(); c++ {
		c := c
		for k := 0; k < 3; k++ {
			at := time.Duration(c*7+k*13+1) * time.Microsecond
			g.Cell(c).Schedule(at, func() { relay(c, 0) })
		}
	}
	return &counts
}

func runShardTraffic(t *testing.T, cells, workers int) (uint64, uint64, []uint64) {
	t.Helper()
	g := NewShardGroup(42, cells, 150*time.Microsecond, workers)
	if w := g.Workers(); w > cells {
		t.Fatalf("workers not clamped: got %d for %d cells", w, cells)
	}
	g.EnableDigest()
	counts := shardTraffic(g, 12)
	g.RunUntil(50 * time.Millisecond)
	for c := 0; c < cells; c++ {
		if now := g.Cell(c).Now(); now != 50*time.Millisecond {
			t.Fatalf("cell %d clock %v, want 50ms", c, now)
		}
	}
	return g.Digest(), g.Processed(), *counts
}

// TestShardGroupWorkerSweep pins the shard-invariance contract: the same
// seed and cell count produce byte-identical digests, event counts, and
// model state at every worker count, including serial workers=1.
func TestShardGroupWorkerSweep(t *testing.T) {
	for _, cells := range []int{1, 3, 8} {
		refDigest, refProcessed, refCounts := runShardTraffic(t, cells, 1)
		if refProcessed == 0 {
			t.Fatalf("cells=%d: no events processed", cells)
		}
		for _, workers := range []int{2, 4, 8} {
			d, p, counts := runShardTraffic(t, cells, workers)
			if d != refDigest {
				t.Errorf("cells=%d workers=%d: digest %#x, want %#x", cells, workers, d, refDigest)
			}
			if p != refProcessed {
				t.Errorf("cells=%d workers=%d: processed %d, want %d", cells, workers, p, refProcessed)
			}
			for c := range counts {
				if counts[c] != refCounts[c] {
					t.Errorf("cells=%d workers=%d: cell %d count %d, want %d", cells, workers, c, counts[c], refCounts[c])
				}
			}
		}
	}
}

// TestShardGroupDigestPinned pins the digest constant itself so an
// accidental protocol change (merge order, window bounds, seed
// derivation) fails loudly rather than silently shifting all runs.
//
// The digest hashes (at, seq), and seq is a label: the position at which
// an event was inserted into its cell's heap. It was re-pinned once (from
// 0xecfba5eaff115726) when the barrier stopped sorting its batch by time
// before inserting it: a batch is now inserted source by source, so an
// event that is sent early but lands late gets a smaller label than it
// used to. The executed order did not move — the heap runs by time first
// and labels only break ties between equal times, where the insertion
// order (source cell, then send order) is what the sort produced too —
// which TestShardGroupMergeOrder states directly and the digests that hash
// what ran rather than its labels (chaos, critpath, the tables) confirm.
func TestShardGroupDigestPinned(t *testing.T) {
	const wantDigest = uint64(0xa2f00a1b66e73b5f)
	const wantProcessed = uint64(312)
	d, p, _ := runShardTraffic(t, 4, 2)
	if d != wantDigest || p != wantProcessed {
		t.Fatalf("digest %#x processed %d, want %#x / %d", d, p, wantDigest, wantProcessed)
	}
	d2, _, _ := runShardTraffic(t, 4, 7)
	if d != d2 {
		t.Fatalf("digest not worker-invariant: %#x vs %#x", d, d2)
	}
}

// TestShardGroupAllCrossTraffic runs a model whose every event is a
// cross-cell send — the regime where the merge order does all the work.
func TestShardGroupAllCrossTraffic(t *testing.T) {
	run := func(workers int) uint64 {
		g := NewShardGroup(7, 4, time.Millisecond, workers)
		g.EnableDigest()
		var ping func(cell, n int)
		ping = func(cell, n int) {
			if n >= 40 {
				return
			}
			dst := (cell + 1 + n%3) % 4
			if dst == cell {
				dst = (dst + 1) % 4
			}
			g.SendAfter(cell, dst, 0, func() { ping(dst, n+1) })
		}
		for c := 0; c < 4; c++ {
			c := c
			g.Cell(c).Schedule(time.Microsecond, func() { ping(c, 0) })
		}
		g.RunUntil(time.Second)
		return g.Digest()
	}
	ref := run(1)
	for _, w := range []int{2, 4} {
		if d := run(w); d != ref {
			t.Errorf("workers=%d digest %#x, want %#x", w, d, ref)
		}
	}
}

// TestShardGroupDeadline checks the deadline-capped final window: an
// event exactly at the deadline executes, clocks land on the deadline,
// and a later RunUntil picks up cross events emitted near the edge.
func TestShardGroupDeadline(t *testing.T) {
	g := NewShardGroup(1, 2, 100*time.Microsecond, 1)
	var atDeadline, afterDeadline, crossed bool
	g.Cell(0).Schedule(time.Millisecond, func() { atDeadline = true })
	g.Cell(0).Schedule(time.Millisecond+1, func() { afterDeadline = true })
	// A cross send whose delivery lands past the first deadline.
	g.Cell(0).Schedule(990*time.Microsecond, func() {
		g.SendAfter(0, 1, 0, func() { crossed = true })
	})
	g.RunUntil(time.Millisecond)
	if !atDeadline {
		t.Error("event at the deadline did not run")
	}
	if afterDeadline {
		t.Error("event past the deadline ran early")
	}
	if crossed {
		t.Error("cross event past the deadline ran early")
	}
	if now := g.Cell(1).Now(); now != time.Millisecond {
		t.Errorf("cell 1 clock %v, want 1ms", now)
	}
	g.RunUntil(2 * time.Millisecond)
	if !afterDeadline || !crossed {
		t.Errorf("second phase: afterDeadline=%v crossed=%v, want both", afterDeadline, crossed)
	}
}

// TestShardGroupIdleWiring checks cross sends issued while the group is
// idle (model wiring between runs) are merged before the next window.
func TestShardGroupIdleWiring(t *testing.T) {
	g := NewShardGroup(3, 3, time.Millisecond, 2)
	var hits int
	g.SendAfter(0, 2, 4*time.Millisecond, func() { hits++ })
	g.SendAfter(1, 2, 4*time.Millisecond, func() { hits++ })
	g.RunUntil(10 * time.Millisecond)
	if hits != 2 {
		t.Fatalf("idle-wired cross events: %d hits, want 2", hits)
	}
}

// TestShardGroupSendAfterLanding pins the delivery instant: now + lookahead
// + extra on the sending cell's clock, whether or not the destination is
// the sending cell.
func TestShardGroupSendAfterLanding(t *testing.T) {
	const L, extra = time.Millisecond, 250 * time.Microsecond
	for _, dst := range []int{0, 1} {
		g := NewShardGroup(1, 2, L, 1)
		sentAt := 3 * time.Millisecond
		var landed time.Duration
		g.Cell(0).Schedule(sentAt, func() {
			g.SendAfter(0, dst, extra, func() { landed = g.Cell(dst).Now() })
		})
		g.RunUntil(10 * time.Millisecond)
		if want := sentAt + L + extra; landed != want {
			t.Errorf("dst cell %d: landed at %v, want %v", dst, landed, want)
		}
	}
}

// TestShardGroupNegativeExtra pins the contract's teeth: the one way left
// to aim inside the lookahead window, a negative extra, panics — same-cell
// and cross-cell alike.
func TestShardGroupNegativeExtra(t *testing.T) {
	for _, dst := range []int{0, 1} {
		func() {
			g := NewShardGroup(1, 2, time.Millisecond, 1)
			defer func() {
				if recover() == nil {
					t.Errorf("dst cell %d: SendAfter with a negative extra did not panic", dst)
				}
			}()
			g.SendAfter(0, dst, -time.Microsecond, func() {})
		}()
	}
}

// TestShardGroupConstructorPanics pins the constructor contract.
func TestShardGroupConstructorPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero cells", func() { NewShardGroup(1, 0, time.Millisecond, 1) })
	mustPanic("zero lookahead", func() { NewShardGroup(1, 2, 0, 1) })
	mustPanic("negative lookahead", func() { NewShardGroup(1, 2, -time.Second, 1) })
}

// TestShardGroupCellSeeds checks per-cell RNG streams are functions of
// (root seed, cell, label) alone: distinct across cells, reproducible
// across constructions.
func TestShardGroupCellSeeds(t *testing.T) {
	a := NewShardGroup(99, 4, time.Millisecond, 1)
	b := NewShardGroup(99, 4, time.Millisecond, 4)
	for i := 0; i < 4; i++ {
		if x, y := a.Cell(i).Rand("s").Uint64(), b.Cell(i).Rand("s").Uint64(); x != y {
			t.Errorf("cell %d stream differs across constructions: %d vs %d", i, x, y)
		}
	}
	if a.Cell(0).Seed() == a.Cell(1).Seed() {
		t.Error("adjacent cells share a seed")
	}
}

// kernelCounter reads one of the group's own counters from cell 0.
func kernelCounter(g *ShardGroup, name string) int64 {
	return g.Cell(0).Metrics().Counter(name).Value()
}

// TestShardGroupMergeOrder states the barrier's order contract directly:
// of the events three source cells send to one destination in one window,
// the destination runs the earlier first, equal times by source cell, and
// one source's equal times in the order sent — although each source sends
// its latest event first and the barrier sorts nothing. The sending window
// follows a busy one, so with more than one worker the sources run on the
// pool.
func TestShardGroupMergeOrder(t *testing.T) {
	const L = 100 * time.Microsecond
	extras := []time.Duration{3 * L, 2 * L, 2 * L, L, L} // decreasing, with ties
	var want []string
	for _, at := range []time.Duration{L, 2 * L, 3 * L} {
		for src := 1; src <= 3; src++ {
			for i, x := range extras {
				if x == at {
					want = append(want, fmt.Sprintf("%v/%d/%d", at, src, i))
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		g := NewShardGroup(5, 4, L, workers)
		var got []string
		for src := 1; src <= 3; src++ {
			src := src
			for k := 0; k < dispatchMinWork/2; k++ {
				g.Cell(src).Schedule(time.Microsecond, func() {})
			}
			g.Cell(src).Schedule(time.Microsecond+L, func() {
				for i, x := range extras {
					tag := fmt.Sprintf("%v/%d/%d", x, src, i)
					g.SendAfter(src, 0, x-L, func() { got = append(got, tag) })
				}
			})
		}
		g.Run()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("workers=%d: destination ran\n%v, want\n%v", workers, got, want)
		}
		if d := kernelCounter(g, "simnet.windows_dispatched"); d != 1 {
			t.Errorf("workers=%d: %d windows dispatched, want the sending window alone", workers, d)
		}
	}
}

// TestShardGroupDenseWorkerSweep keeps the multi-worker path in the suite
// now that sparse windows run inline: a program in which every window has
// several times dispatchMinWork events on every cell must dispatch nearly
// all of its windows, and produce the same digest, event count and merged
// metrics at every worker count.
func TestShardGroupDenseWorkerSweep(t *testing.T) {
	const cells, hops, L = 8, 20, 150 * time.Microsecond
	run := func(workers int) (uint64, uint64, string, *ShardGroup) {
		g := NewShardGroup(11, cells, L, workers)
		g.EnableDigest()
		hits := make([]*int64, cells)
		var hop func(cell, n int)
		hop = func(cell, n int) {
			e := g.Cell(cell)
			e.Metrics().Counter("dense.hops").Inc()
			d := time.Duration(e.Rand("dense/local").Intn(40)+1) * time.Microsecond
			e.After(d, func() { *hits[cell]++ })
			if n < hops {
				next := (cell + 1 + n%3) % cells
				g.SendAfter(cell, next, 0, func() { hop(next, n+1) })
			}
		}
		for c := 0; c < cells; c++ {
			c := c
			hits[c] = new(int64)
			for k := 0; k < 2*dispatchMinWork; k++ {
				g.Cell(c).Schedule(time.Duration(k%50+1)*time.Microsecond, func() { hop(c, 0) })
			}
		}
		g.Run()
		var sb strings.Builder
		if err := g.MergedMetrics().WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return g.Digest(), g.Processed(), sb.String(), g
	}
	refDigest, refProcessed, refMetrics, g := run(1)
	windows, dispatched := kernelCounter(g, "simnet.windows"), kernelCounter(g, "simnet.windows_dispatched")
	if dispatched < hops || dispatched < windows-2 {
		t.Fatalf("%d of %d windows dispatched: the program is not dense", dispatched, windows)
	}
	for _, workers := range []int{2, 3, 8} {
		d, p, m, _ := run(workers)
		if d != refDigest || p != refProcessed {
			t.Errorf("workers=%d: digest %#x processed %d, want %#x / %d", workers, d, p, refDigest, refProcessed)
		}
		if m != refMetrics {
			t.Errorf("workers=%d: merged metrics differ from workers=1:\n%s\nwant\n%s", workers, m, refMetrics)
		}
	}
}

// liveGoroutines counts goroutines after yielding to those that have
// answered a join but not yet returned: a worker's exit token precedes its
// exit, so the count can trail a join by an instant.
func liveGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m < n {
			n, i = m, 0
		}
	}
	return n
}

// TestShardGroupSparseRunStartsNoWorker pins the pool's lifetime: it
// starts at a run's first dispatched window, so a run in which no window
// qualifies — whatever its worker count — runs on the calling goroutine
// alone, and a run that did dispatch leaves no goroutine behind.
func TestShardGroupSparseRunStartsNoWorker(t *testing.T) {
	before := liveGoroutines()
	g := NewShardGroup(9, 2, time.Millisecond, 4)
	var seen [2]int // most goroutines any event of the cell saw
	look := func(cell int) { seen[cell] = max(seen[cell], runtime.NumGoroutine()) }
	var ping func(cell, n int)
	ping = func(cell, n int) {
		look(cell)
		g.Cell(cell).After(10*time.Microsecond, func() {})
		if n < 200 {
			g.SendAfter(cell, 1-cell, 0, func() { ping(1-cell, n+1) })
		}
	}
	g.Cell(0).Schedule(time.Microsecond, func() { ping(0, 0) })
	g.Cell(1).Schedule(time.Microsecond, func() { ping(1, 0) })
	g.RunUntil(time.Second)
	if d := kernelCounter(g, "simnet.windows_dispatched"); d != 0 {
		t.Fatalf("sparse program dispatched %d windows", d)
	}
	if kernelCounter(g, "simnet.windows_multi_busy") == 0 {
		t.Fatal("sparse program never had two busy cells: the test would pass on any predicate")
	}
	if after := liveGoroutines(); max(seen[0], seen[1]) != before || after != before {
		t.Errorf("goroutines: %d before, %v during, %d after a run that dispatched nothing", before, seen, after)
	}

	// A dense phase on the same group starts the pool and joins it.
	for c := 0; c < 2; c++ {
		c := c
		for k := 0; k < 2*dispatchMinWork; k++ {
			g.Cell(c).After(time.Millisecond, func() {})
			g.Cell(c).After(2*time.Millisecond, func() { look(c) })
		}
	}
	g.RunUntil(2 * time.Second)
	if d := kernelCounter(g, "simnet.windows_dispatched"); d != 1 {
		t.Fatalf("dense phase dispatched %d windows, want 1", d)
	}
	if got := max(seen[0], seen[1]); got != before+1 {
		t.Errorf("dense phase saw %d goroutines, want %d (one helper beside the coordinator)", got, before+1)
	}
	if after := liveGoroutines(); after != before {
		t.Errorf("goroutines: %d before, %d after the pool was joined", before, after)
	}
}
