package simnet

import (
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
func TestShardGroupDigestPinned(t *testing.T) {
	const wantDigest = uint64(0xecfba5eaff115726)
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
