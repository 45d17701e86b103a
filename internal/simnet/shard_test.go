package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// shardTraffic drives a synthetic relay model on a ShardGroup: every cell
// seeds a few initial events, and each event draws from the cell's
// labelled RNG stream, bumps a per-cell counter, and relays work to the
// next cell jitter past the lookahead for a fixed number of hops. The model
// exercises same-cell scheduling, cross-cell sends, and RNG draws; its
// digest is what TestShardGroupDigestPinned pins.
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

func runShardTraffic(t *testing.T, cells int) (uint64, uint64, []uint64) {
	t.Helper()
	g := NewShardGroup(42, cells, 150*time.Microsecond)
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
	d, p, _ := runShardTraffic(t, 4)
	if d != wantDigest || p != wantProcessed {
		t.Fatalf("digest %#x processed %d, want %#x / %d", d, p, wantDigest, wantProcessed)
	}
}

// TestShardGroupAllCrossTraffic runs a model whose every event is a
// cross-cell send — the regime where the merge order does all the work —
// and requires every hop to land and a rerun to execute the same stream.
func TestShardGroupAllCrossTraffic(t *testing.T) {
	run := func() (uint64, uint64) {
		g := NewShardGroup(7, 4, time.Millisecond)
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
		return g.Digest(), g.Processed()
	}
	d, p := run()
	if p != 4*41 {
		t.Errorf("processed %d events, want %d (4 chains of 41 hops)", p, 4*41)
	}
	if d2, _ := run(); d2 != d {
		t.Errorf("rerun digest %#x, want %#x", d2, d)
	}
}

// TestShardGroupDeadline checks the deadline-capped final window: an
// event exactly at the deadline executes, clocks land on the deadline,
// and a later RunUntil picks up cross events emitted near the edge.
func TestShardGroupDeadline(t *testing.T) {
	g := NewShardGroup(1, 2, 100*time.Microsecond)
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
	g := NewShardGroup(3, 3, time.Millisecond)
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
		g := NewShardGroup(1, 2, L)
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
			g := NewShardGroup(1, 2, time.Millisecond)
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
	mustPanic("zero cells", func() { NewShardGroup(1, 0, time.Millisecond) })
	mustPanic("zero lookahead", func() { NewShardGroup(1, 2, 0) })
	mustPanic("negative lookahead", func() { NewShardGroup(1, 2, -time.Second) })
}

// TestShardGroupCellSeeds checks per-cell RNG streams are functions of
// (root seed, cell, label) alone: distinct across cells, reproducible
// across constructions.
func TestShardGroupCellSeeds(t *testing.T) {
	a := NewShardGroup(99, 4, time.Millisecond)
	b := NewShardGroup(99, 4, time.Millisecond)
	for i := 0; i < 4; i++ {
		if x, y := a.Cell(i).Rand("s").Uint64(), b.Cell(i).Rand("s").Uint64(); x != y {
			t.Errorf("cell %d stream differs across constructions: %d vs %d", i, x, y)
		}
	}
	if a.Cell(0).Seed() == a.Cell(1).Seed() {
		t.Error("adjacent cells share a seed")
	}
}

// TestShardGroupMergeOrder states the barrier's order contract directly:
// of the events three source cells send to one destination in one window,
// the destination runs the earlier first, equal times by source cell, and
// one source's equal times in the order sent — although each source sends
// its latest event first and the barrier sorts nothing.
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
	g := NewShardGroup(5, 4, L)
	var got []string
	for src := 1; src <= 3; src++ {
		src := src
		g.Cell(src).Schedule(time.Microsecond, func() {
			for i, x := range extras {
				tag := fmt.Sprintf("%v/%d/%d", x, src, i)
				g.SendAfter(src, 0, x-L, func() { got = append(got, tag) })
			}
		})
	}
	g.Run()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("destination ran\n%v, want\n%v", got, want)
	}
}
