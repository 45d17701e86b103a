package comm

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/predict"
	"eslurm/internal/simnet"
)

// TestBroadcastOracle is a differential oracle for the static fault model.
// With fail-stops and partitions fixed before the broadcast and no message
// loss, a target is delivered exactly when it is alive and on the origin's
// side of every active partition. The argument holds for Star, KTree and
// FPTree alike: every sender a structure uses (the origin, a relay, an
// adopting ancestor) was itself reached, so it stands on the origin's
// side, and the wire severs a link exactly when some partition separates
// its ends — a target the oracle calls reachable is contacted by a live
// sender on its side, one it calls unreachable never is.
func TestBroadcastOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		const computes = 150
		var failed []int
		for i := 0; i < computes; i++ {
			if rng.Float64() < 0.1 {
				failed = append(failed, i)
			}
		}
		// One or two partitions of ~20% of the computes; in odd trials the
		// origin is a member of the first, so its side is the members'.
		var parts [][]int
		for p := 0; p < 1+trial%2; p++ {
			parts = append(parts, rng.Perm(computes)[:computes/5])
		}
		predicted := predict.Static{}
		for _, i := range failed[:len(failed)/2] {
			predicted[cluster.NodeID(2+i)] = true // master 0, satellite 1, computes after
		}
		for _, s := range []Structure{Star{}, KTree{Width: 4}, FPTree{Width: 4, Predictor: predicted}} {
			c := cluster.New(simnet.NewEngine(int64(trial)), cluster.Config{Computes: computes, Satellites: 1})
			comps, origin := c.Computes(), c.Master().ID
			for _, i := range failed {
				c.Fail(comps[i])
			}
			for p, members := range parts {
				ids := make([]cluster.NodeID, 0, len(members)+1)
				for _, i := range members {
					ids = append(ids, comps[i])
				}
				if p == 0 && trial%2 == 1 {
					ids = append(ids, origin)
				}
				c.Net.Partition(ids, 0)
			}
			var want, wantUnreachable []cluster.NodeID
			for _, id := range comps {
				if !c.Node(id).Failed() && !c.Net.Severed(origin, id) {
					want = append(want, id)
				} else {
					wantUnreachable = append(wantUnreachable, id)
				}
			}

			b := NewBroadcaster(c)
			b.RecordResolved = true
			var res Result
			s.Broadcast(b, origin, comps, 512, func(r Result) { res = r })
			c.Run()
			got, gotUnreachable := slices.Clone(res.Resolved), slices.Clone(res.Unreachable)
			slices.Sort(got)
			slices.Sort(gotUnreachable)
			if !slices.Equal(got, want) || !slices.Equal(gotUnreachable, wantUnreachable) {
				t.Errorf("trial %d %s: delivered %d / unreachable %d, oracle says %d / %d\ndelivered %v\noracle    %v",
					trial, s.Name(), len(got), len(gotUnreachable), len(want), len(wantUnreachable), got, want)
			}
		}
	}
}

// TestDuplicatesDedupAtTheReceiver: with every message duplicated, a relay
// still forwards once — each target receives the payload from its parent
// exactly twice (original + duplicate), never more.
func TestDuplicatesDedupAtTheReceiver(t *testing.T) {
	c := cluster.New(simnet.NewEngine(9), cluster.Config{Computes: 40, Satellites: 2, Net: cluster.NetConfig{DupProb: 1}})
	comps := c.Computes()
	b := NewBroadcaster(c)
	var res Result
	KTree{Width: 3}.Broadcast(b, c.Master().ID, comps, 512, func(r Result) { res = r })
	c.RunUntil(time.Minute)
	if res.Delivered != 40 || res.Messages != 40 {
		t.Fatalf("delivered=%d messages=%d, want 40/40: a duplicate was forwarded", res.Delivered, res.Messages)
	}
	for _, id := range comps {
		if in, _ := c.Node(id).Meter.Messages(); in != 2 {
			t.Errorf("node %d received %d messages, want 2 (payload + its duplicate)", id, in)
		}
	}
}

// TestGrayRelayPaysItsSlowdown: a gray relay pays its relay cost inflated
// by its slowdown factor before it forwards.
func TestGrayRelayPaysItsSlowdown(t *testing.T) {
	elapsed := func(gray bool) time.Duration {
		c := cluster.New(simnet.NewEngine(3), cluster.Config{Computes: 12, Satellites: 2, Net: cluster.NetConfig{Jitter: cluster.Disabled}})
		comps := c.Computes()
		if gray {
			c.Net.ScheduleGray(comps[0], 50, time.Millisecond, 0)
		}
		b := NewBroadcaster(c)
		var res Result
		c.Engine.Schedule(10*time.Millisecond, func() {
			Ring{}.Broadcast(b, c.Master().ID, comps[:3], 512, func(r Result) { res = r })
		})
		c.RunUntil(time.Minute)
		if res.Delivered != 3 {
			t.Fatalf("gray=%v: delivered %d/3", gray, res.Delivered)
		}
		return res.DeliveredElapsed
	}
	base, slow := elapsed(false), elapsed(true)
	if slow < base+40*200*time.Microsecond { // 49 extra RelayOverheads
		t.Errorf("gray relay chain took %v vs healthy %v: the relay's slowdown was not paid", slow, base)
	}
}

// TestRetryOverlapsFirstAttemptsArrival: a destination gray enough that
// its delivery time passes ConnectTimeout dies while the message is in
// flight. At the delivery instant the sender finds it unreachable with no
// timeout left to wait, so the retry launches at the first attempt's
// landing instant: the two attempts must not share a wire record, and the
// target resolves unreachable after exactly the policy's retries.
func TestRetryOverlapsFirstAttemptsArrival(t *testing.T) {
	for _, s := range []Structure{Star{}, KTree{Width: 4}} {
		c := cluster.New(simnet.NewEngine(17), cluster.Config{Computes: 16, Satellites: 2, Net: cluster.NetConfig{Jitter: cluster.Disabled}})
		comps := c.Computes()
		slow := comps[0] // a first-layer relay of the tree
		c.Net.ScheduleGray(slow, 3000, time.Millisecond, 0)
		c.ScheduleFailure(slow, 500*time.Millisecond, 0)
		b := NewBroadcaster(c)
		var res Result
		got := false
		c.Engine.Schedule(10*time.Millisecond, func() {
			if d := c.Net.TransferTime(1024) + c.Net.Config().ConnectCost; time.Duration(3000*float64(d)) < c.Net.Config().ConnectTimeout {
				t.Errorf("test setup: a %v delivery slowed 3000x does not reach the connect timeout", d)
			}
			s.Broadcast(b, c.Master().ID, comps, 1024, func(r Result) { res, got = r, true })
		})
		c.RunUntil(10 * time.Minute)
		if !got {
			t.Fatalf("%s: broadcast never finished", s.Name())
		}
		if res.Delivered+len(res.Unreachable) != len(comps) {
			t.Errorf("%s: delivered %d + unreachable %d != %d targets", s.Name(), res.Delivered, len(res.Unreachable), len(comps))
		}
		if len(res.Unreachable) != 1 || res.Unreachable[0] != slow {
			t.Errorf("%s: unreachable = %v, want [%d]", s.Name(), res.Unreachable, slow)
		}
		if res.Retries != b.Retry.MaxAttempts-1 {
			t.Errorf("%s: %d retries, want %d against the one dead node", s.Name(), res.Retries, b.Retry.MaxAttempts-1)
		}
		if n := b.OutstandingSends(); n != 0 {
			t.Errorf("%s: outstanding sends = %d after drain, want 0", s.Name(), n)
		}
	}
}

// TestChainsReturnToPool holds the chain pool's ownership rule — a chain
// is free once it is resolved and the wire has released its last flight —
// where it is easiest to break: every landing is duplicated (a duplicate
// lands after Sent has settled its chain), messages are lost, an interior
// relay is dead, and the retry deadline expires both on a timeout and in
// the middle of a backoff, when no flight is out. After the drain no
// chain is outstanding and every chain ever made is back on the free list;
// an Outcome callback or event that reached a released chain would have
// panicked in the run.
func TestChainsReturnToPool(t *testing.T) {
	const computes = 200
	net := cluster.NetConfig{DupProb: 1, LossProb: 0.2}
	for _, s := range []Structure{Star{}, KTree{Width: 4}, FPTree{Width: 4}} {
		c := cluster.New(simnet.NewEngine(31), cluster.Config{Computes: computes, Satellites: 1, Net: net})
		comps, origin := c.Computes(), c.Satellites()[0]
		c.Fail(comps[0])  // the head of the first subtree: an interior relay
		c.Fail(comps[51]) // a second interior relay, one level down at width 4
		b := NewBroadcaster(c)
		// Attempts at 0 s and 1.1 s time out at 1 s and 2.1 s; the backoff
		// after the second runs past the 2.2 s deadline, so the chain
		// settles with no flight out. A chain lost once succeeds at 1.1 s.
		b.Retry = RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Millisecond, Deadline: 2200 * time.Millisecond}
		var res Result
		sends, sent := 0, 0
		run := func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: %v", s.Name(), p)
				}
			}()
			s.Broadcast(b, origin, comps, 512, func(r Result) { res = r })
			for _, to := range comps[:20] {
				sends++
				b.Send(origin, to, 64, 0, func(bool) { sent++ })
			}
			c.Run()
		}
		run()
		if res.Delivered+len(res.Unreachable) != computes || sent != sends {
			t.Fatalf("%s: %d delivered + %d unreachable of %d, %d/%d sends resolved",
				s.Name(), res.Delivered, len(res.Unreachable), computes, sent, sends)
		}
		if res.Retries == 0 || len(res.Unreachable) <= 2 {
			t.Fatalf("%s: %d retries, %d unreachable: the loss and deadline paths did not run",
				s.Name(), res.Retries, len(res.Unreachable))
		}
		if n := b.OutstandingSends(); n != 0 {
			t.Errorf("%s: %d chains outstanding after the drain", s.Name(), n)
		}
		if len(b.spare) != b.made {
			t.Errorf("%s: %d of %d chains back on the free list after the drain", s.Name(), len(b.spare), b.made)
		}
		for _, ch := range b.spare {
			if *ch != (chain{spare: true}) {
				t.Fatalf("%s: a free chain still holds %+v", s.Name(), *ch)
			}
		}
		// A tree broadcast's list goes back to the pool with its last chain.
		wantLists := 1
		if _, star := s.(Star); star {
			wantLists = 0
		}
		if n := len(b.Lists.free); n != wantLists {
			t.Errorf("%s: %d lists back in the pool after the drain, want %d", s.Name(), n, wantLists)
		}
	}
}

// TestListPool: Get reuses the smallest list that is large enough, empty,
// and allocates only when none is; Put ignores a list with no room.
func TestListPool(t *testing.T) {
	var p ListPool
	small, big := make([]cluster.NodeID, 3, 8), make([]cluster.NodeID, 0, 64)
	p.Put(nil)
	p.Put(big)
	p.Put(small)
	if got := p.Get(5); cap(got) != 8 || len(got) != 0 {
		t.Fatalf("Get(5) = len %d cap %d, want the empty cap-8 list", len(got), cap(got))
	}
	if got := p.Get(5); cap(got) != 64 {
		t.Fatalf("second Get(5) has cap %d, want the cap-64 list", cap(got))
	}
	if got := p.Get(5); cap(got) != 5 || len(p.free) != 0 {
		t.Fatalf("Get(5) on an empty pool: cap %d, %d left in the pool", cap(got), len(p.free))
	}
}
