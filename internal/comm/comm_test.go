package comm

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"eslurm/internal/cluster"
	"eslurm/internal/predict"
	"eslurm/internal/simnet"
)

// runBroadcast drives a structure synchronously and returns the result.
func runBroadcast(t *testing.T, seed int64, computes int, failed []int, s Structure, pred predict.Predictor) Result {
	t.Helper()
	e := simnet.NewEngine(seed)
	c := cluster.New(e, cluster.Config{Computes: computes, Satellites: 1})
	targets := c.Computes()
	for _, i := range failed {
		c.Fail(targets[i])
	}
	if fp, ok := s.(FPTree); ok && pred != nil {
		fp.Predictor = pred
		s = fp
	}
	b := NewBroadcaster(c)
	var res Result
	got := false
	s.Broadcast(b, c.Satellites()[0], targets, 512, func(r Result) { res = r; got = true })
	e.Run()
	if !got {
		t.Fatalf("%s: broadcast never completed", s.Name())
	}
	return res
}

func structures() []Structure {
	return []Structure{Ring{}, Star{}, SharedMem{}, KTree{Width: 8}, FPTree{Width: 8}}
}

func TestAllStructuresDeliverToHealthyCluster(t *testing.T) {
	for _, s := range structures() {
		res := runBroadcast(t, 1, 100, nil, s, nil)
		if res.Delivered != 100 {
			t.Errorf("%s: delivered %d/100", s.Name(), res.Delivered)
		}
		if len(res.Unreachable) != 0 {
			t.Errorf("%s: unreachable = %v", s.Name(), res.Unreachable)
		}
		if res.Elapsed <= 0 || res.DeliveredElapsed <= 0 {
			t.Errorf("%s: nonpositive elapsed", s.Name())
		}
		if res.DeliveredElapsed > res.Elapsed {
			t.Errorf("%s: DeliveredElapsed %v > Elapsed %v", s.Name(), res.DeliveredElapsed, res.Elapsed)
		}
	}
}

func TestAllStructuresHandleFailures(t *testing.T) {
	failed := []int{3, 17, 42, 77}
	for _, s := range structures() {
		res := runBroadcast(t, 2, 100, failed, s, nil)
		if res.Delivered != 96 {
			t.Errorf("%s: delivered %d/96 healthy", s.Name(), res.Delivered)
		}
		if len(res.Unreachable) != 4 {
			t.Errorf("%s: unreachable = %d, want 4", s.Name(), len(res.Unreachable))
		}
	}
}

func TestEmptyTargets(t *testing.T) {
	for _, s := range structures() {
		res := runBroadcast(t, 3, 0, nil, s, nil)
		// With zero compute nodes targets is empty; completion must still
		// fire with a zero result.
		if res.Delivered != 0 || len(res.Unreachable) != 0 {
			t.Errorf("%s: nonzero result on empty targets", s.Name())
		}
	}
}

func TestSingleTarget(t *testing.T) {
	for _, s := range structures() {
		res := runBroadcast(t, 4, 1, nil, s, nil)
		if res.Delivered != 1 {
			t.Errorf("%s: single target not delivered", s.Name())
		}
	}
}

func TestRetriesCountedOnFailure(t *testing.T) {
	res := runBroadcast(t, 5, 10, []int{0}, Star{}, nil)
	if res.Retries != 2 { // 3 attempts = 2 retries for the one dead node
		t.Errorf("retries = %d, want 2", res.Retries)
	}
	if res.Messages != 9+3 {
		t.Errorf("messages = %d, want 12", res.Messages)
	}
}

func TestRingSlowerThanTree(t *testing.T) {
	ring := runBroadcast(t, 6, 500, nil, Ring{}, nil)
	tree := runBroadcast(t, 6, 500, nil, KTree{Width: 8}, nil)
	if ring.DeliveredElapsed <= tree.DeliveredElapsed {
		t.Errorf("ring (%v) should be slower than tree (%v) on 500 nodes",
			ring.DeliveredElapsed, tree.DeliveredElapsed)
	}
}

func TestTreeDegradesWithInteriorFailures(t *testing.T) {
	// Fail the first node: in list order it heads the first group and has
	// many descendants, so the plain tree pays timeout + adoption.
	clean := runBroadcast(t, 7, 512, nil, KTree{Width: 8}, nil)
	dirty := runBroadcast(t, 7, 512, []int{0}, KTree{Width: 8}, nil)
	if dirty.DeliveredElapsed < clean.DeliveredElapsed+500*time.Millisecond {
		t.Errorf("interior failure did not slow the tree: clean %v dirty %v",
			clean.DeliveredElapsed, dirty.DeliveredElapsed)
	}
}

func TestFPTreeShieldsPredictedFailures(t *testing.T) {
	// Same failure, but the predictor knows: FP-Tree moves it to a leaf
	// and healthy nodes are unaffected.
	e := simnet.NewEngine(8)
	c := cluster.New(e, cluster.Config{Computes: 512, Satellites: 1})
	targets := c.Computes()
	bad := targets[0]
	c.Fail(bad)
	pred := predict.Static{bad: true}

	b := NewBroadcaster(c)
	var fp Result
	FPTree{Width: 8, Predictor: pred}.Broadcast(b, c.Satellites()[0], targets, 512, func(r Result) { fp = r })
	e.Run()

	plain := runBroadcast(t, 8, 512, []int{0}, KTree{Width: 8}, nil)
	if fp.DeliveredElapsed >= plain.DeliveredElapsed {
		t.Errorf("FP-Tree (%v) not faster than plain tree (%v) with predicted interior failure",
			fp.DeliveredElapsed, plain.DeliveredElapsed)
	}
	// With the failure at a leaf, healthy delivery should be close to the
	// clean-tree time: no healthy node waits on a timeout.
	clean := runBroadcast(t, 8, 512, nil, KTree{Width: 8}, nil)
	if fp.DeliveredElapsed > clean.DeliveredElapsed*3 {
		t.Errorf("FP-Tree healthy delivery %v far above clean tree %v",
			fp.DeliveredElapsed, clean.DeliveredElapsed)
	}
}

func TestFPTreeWithNilPredictorEqualsPlainTree(t *testing.T) {
	fp := runBroadcast(t, 9, 300, nil, FPTree{Width: 8}, nil)
	tr := runBroadcast(t, 9, 300, nil, KTree{Width: 8}, nil)
	if fp.Delivered != tr.Delivered || fp.Messages != tr.Messages {
		t.Errorf("nil-predictor FP-Tree diverges from plain tree: %+v vs %+v", fp, tr)
	}
}

func TestPlacementStats(t *testing.T) {
	e := simnet.NewEngine(10)
	c := cluster.New(e, cluster.Config{Computes: 200, Satellites: 1})
	targets := c.Computes()
	// Fail 10 nodes; predict 8 of them (80% recall).
	pred := predict.Static{}
	for i := 0; i < 10; i++ {
		c.Fail(targets[i*13])
		if i < 8 {
			pred[targets[i*13]] = true
		}
	}
	stats := &PlacementStats{}
	b := NewBroadcaster(c)
	done := false
	FPTree{Width: 8, Predictor: pred, Stats: stats}.Broadcast(b, c.Satellites()[0], targets, 64, func(Result) { done = true })
	e.Run()
	if !done {
		t.Fatal("broadcast incomplete")
	}
	if stats.TreesBuilt != 1 || stats.NodesTotal != 200 {
		t.Errorf("stats header wrong: %+v", stats)
	}
	if stats.FailedEncountered != 10 {
		t.Errorf("FailedEncountered = %d, want 10", stats.FailedEncountered)
	}
	if stats.FailedAtLeaves < 8 {
		t.Errorf("FailedAtLeaves = %d, want >= 8 (all predicted ones)", stats.FailedAtLeaves)
	}
	if r := stats.LeafPlacementRatio(); r < 0.8 || r > 1.0 {
		t.Errorf("LeafPlacementRatio = %v", r)
	}
}

func TestPlacementRatioZeroWhenNoFailures(t *testing.T) {
	var s PlacementStats
	if s.LeafPlacementRatio() != 0 {
		t.Error("ratio must be 0 with no failures encountered")
	}
}

func TestSharedMemFlatUnderFailures(t *testing.T) {
	clean := runBroadcast(t, 11, 400, nil, SharedMem{}, nil)
	var failed []int
	for i := 0; i < 120; i++ { // 30% failure
		failed = append(failed, i*3)
	}
	dirty := runBroadcast(t, 11, 400, failed, SharedMem{}, nil)
	// Healthy delivery time must not grow under failures (it shrinks:
	// fewer fetches).
	if dirty.DeliveredElapsed > clean.DeliveredElapsed {
		t.Errorf("sharedmem degraded under failures: clean %v dirty %v",
			clean.DeliveredElapsed, dirty.DeliveredElapsed)
	}
}

func TestStarLimitedByConcurrency(t *testing.T) {
	e := simnet.NewEngine(12)
	c := cluster.New(e, cluster.Config{Computes: 300, Satellites: 1})
	b := NewBroadcaster(c)
	b.MaxConcurrent = 4
	var res Result
	Star{}.Broadcast(b, c.Satellites()[0], c.Computes(), 64, func(r Result) { res = r })
	e.Run()
	if res.Delivered != 300 {
		t.Fatalf("delivered %d", res.Delivered)
	}
	// Origin can never exceed 4 concurrent sockets.
	if peak := c.Meter(c.Satellites()[0]).PeakSockets(); peak > 4 {
		t.Errorf("peak sockets %d > MaxConcurrent 4", peak)
	}
}

func TestTrackerResolvesExactlyOncePerTarget(t *testing.T) {
	// Nested failures: fail an interior node AND one of its adopted
	// children; every target must still resolve exactly once.
	res := runBroadcast(t, 13, 64, []int{0, 1, 2}, KTree{Width: 4}, nil)
	if res.Delivered+len(res.Unreachable) != 64 {
		t.Fatalf("resolutions = %d, want 64", res.Delivered+len(res.Unreachable))
	}
}

func TestBroadcastTimeGrowsWithFailureRatioForTree(t *testing.T) {
	// Coarse shape check backing Fig. 8b: plain tree latency grows with
	// the failure ratio.
	times := make([]time.Duration, 0, 3)
	for _, ratio := range []float64{0, 0.1, 0.3} {
		n := 512
		count := int(float64(n) * ratio)
		var failed []int
		if count > 0 {
			stride := n / count
			for i := 0; i < count; i++ {
				failed = append(failed, i*stride) // scattered across the list
			}
		}
		res := runBroadcast(t, 14, n, failed, KTree{Width: 8}, nil)
		times = append(times, res.DeliveredElapsed)
	}
	if !(times[0] < times[1] && times[1] <= times[2]) {
		t.Errorf("tree broadcast time not increasing with failure ratio: %v", times)
	}
}

func TestBroadcasterPublicSend(t *testing.T) {
	e := simnet.NewEngine(20)
	c := cluster.New(e, cluster.Config{Computes: 2, Satellites: 0})
	b := NewBroadcaster(c)
	a, d := c.Computes()[0], c.Computes()[1]
	ok := false
	b.Send(a, d, 128, 0, func(delivered bool) { ok = delivered })
	e.Run()
	if !ok {
		t.Fatal("public Send failed on healthy pair")
	}
	// To a failed node: all retries exhausted, cb(false).
	c.Fail(d)
	got := true
	b.Send(a, d, 128, 0, func(delivered bool) { got = delivered })
	e.Run()
	if got {
		t.Fatal("Send to failed node reported success")
	}
}

func TestBinomialDeliversAll(t *testing.T) {
	res := runBroadcast(t, 21, 300, nil, Binomial{}, nil)
	if res.Delivered != 300 || len(res.Unreachable) != 0 {
		t.Fatalf("binomial delivered %d, unreachable %d", res.Delivered, len(res.Unreachable))
	}
	if res.Messages != 300 {
		t.Errorf("binomial messages = %d, want exactly n", res.Messages)
	}
}

func TestBinomialHandlesFailures(t *testing.T) {
	res := runBroadcast(t, 22, 200, []int{0, 64, 150}, Binomial{}, nil)
	if res.Delivered+len(res.Unreachable) != 200 {
		t.Fatal("binomial lost resolutions under failures")
	}
	if len(res.Unreachable) != 3 {
		t.Errorf("unreachable = %d", len(res.Unreachable))
	}
}

func TestBinomialLogDepthLatency(t *testing.T) {
	// Healthy binomial delivery is O(log n) rounds: far faster than ring,
	// within a small factor of the k-ary tree.
	bin := runBroadcast(t, 23, 1024, nil, Binomial{}, nil)
	ring := runBroadcast(t, 23, 1024, nil, Ring{}, nil)
	if bin.DeliveredElapsed*10 > ring.DeliveredElapsed {
		t.Errorf("binomial (%v) not ~10x faster than ring (%v)", bin.DeliveredElapsed, ring.DeliveredElapsed)
	}
}

// A delivered message is the unit the soaks and the scale experiments
// repeat millions of times, and what it allocates sets how often the
// collector runs — which is what made their wall time swing from run to
// run. With tracing off one message costs nothing: the chain (reused by
// the broadcaster), the flight (reused by the wire), the events, the
// wire's callbacks, the limiter's queue and the span attributes.
func TestSendAllocationBudget(t *testing.T) {
	e := simnet.NewEngine(21)
	c := cluster.New(e, cluster.Config{Computes: 2, Satellites: 0})
	b := NewBroadcaster(c)
	from, to := c.Computes()[0], c.Computes()[1]
	cb := func(bool) {}
	const budget = 0
	if got := testing.AllocsPerRun(200, func() { b.Send(from, to, 128, 0, cb); e.Run() }); got > budget {
		t.Fatalf("one delivered message allocates %.0f objects, budget %d", got, budget)
	}
	// Bytes follow the allocator's size classes: one more word puts a chain
	// in the 112-byte class.
	if sz := unsafe.Sizeof(chain{}); sz > 96 {
		t.Errorf("chain is %d bytes, want at most 96", sz)
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestAllocsPerTarget budgets a whole broadcast on 1024 healthy nodes per
// target. A target costs no object of its own: its chain comes from the
// broadcaster's pool and is its relay's event (tree, ring and binomial
// alike), its flight from the wire's, a tree is its target list, walked by
// range, and a shared-memory fetch is an event of its broadcast's one
// handler. What is left is per
// broadcast — the tracker, the tree, the copied or rearranged list — and
// comes to a few hundredths of an object per target. A closure, method
// value or node per message, anywhere between the structure and the
// kernel, shows here as a whole extra object per target.
func TestAllocsPerTarget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const targets = 1024
	for _, tc := range []struct {
		s      Structure
		budget float64 // objects per target
	}{
		{Star{}, 0.2},
		{Ring{}, 0.2},
		{SharedMem{}, 0.2},
		{KTree{}, 0.2},
		{FPTree{}, 0.2},
		{Binomial{}, 0.2},
	} {
		e := simnet.NewEngine(22)
		c := cluster.New(e, cluster.Config{Computes: targets, Satellites: 1})
		b := NewBroadcaster(c)
		delivered := 0
		done := func(r Result) { delivered = r.Delivered }
		run := func() {
			tc.s.Broadcast(b, c.Satellites()[0], c.Computes(), 512, done)
			e.Run()
		}
		run() // the origin's limiter, its queue, the event pool
		got := testing.AllocsPerRun(10, run) / targets
		if delivered != targets {
			t.Fatalf("%s: delivered %d/%d", tc.s.Name(), delivered, targets)
		}
		if got > tc.budget {
			t.Errorf("%s: %.2f objects per target, budget %.1f", tc.s.Name(), got, tc.budget)
		}
		t.Logf("%s: %.3f objects per target", tc.s.Name(), got)
	}
}

// TestLimiterQueueReleasesChains: once a Star far wider than the origin's
// connection limit has drained, the origin's queue holds no chain — a
// popped slot that kept its pointer would pin every chain, and through
// its sink the whole broadcast, until the array happened to be
// reallocated.
func TestLimiterQueueReleasesChains(t *testing.T) {
	const targets = 4096
	e := simnet.NewEngine(23)
	c := cluster.New(e, cluster.Config{Computes: targets, Satellites: 1})
	b := NewBroadcaster(c)
	origin := c.Satellites()[0]
	delivered := 0
	Star{}.Broadcast(b, origin, c.Computes(), 512, func(r Result) { delivered = r.Delivered })
	l := b.limiters[origin]
	if queued := len(l.queue) - l.head; queued != targets-b.MaxConcurrent {
		t.Fatalf("%d chains queued behind %d slots, want %d", queued, b.MaxConcurrent, targets-b.MaxConcurrent)
	}
	e.Run()
	if delivered != targets {
		t.Fatalf("delivered %d/%d", delivered, targets)
	}
	if len(l.queue) != 0 || l.head != 0 || l.inUse != 0 {
		t.Errorf("drained limiter: %d queued from head %d, %d slots in use; want 0, 0, 0", len(l.queue), l.head, l.inUse)
	}
	for i, ch := range l.queue[:cap(l.queue)] {
		if ch != nil {
			t.Fatalf("queue slot %d of %d still holds a chain after the drain", i, cap(l.queue))
		}
	}
}

// TestBroadcastLeavesTargetsUnchanged: cluster.Computes hands every caller
// the cluster's own read-only slice, so no structure may reorder or edit
// the targets it is given — with failed nodes (adoption, retries) and
// with a predictor that makes the FP-Tree rearrange.
func TestBroadcastLeavesTargetsUnchanged(t *testing.T) {
	for _, s := range append(structures(), Binomial{}, FPTree{Width: 8, Predictor: predict.Static{7: true, 40: true}}) {
		e := simnet.NewEngine(24)
		c := cluster.New(e, cluster.Config{Computes: 100, Satellites: 1})
		targets := c.Computes()
		want := slices.Clone(targets)
		for _, i := range []int{0, 7, 40, 99} {
			c.Fail(targets[i])
		}
		got := false
		s.Broadcast(NewBroadcaster(c), c.Satellites()[0], targets, 512, func(Result) { got = true })
		e.Run()
		if !got {
			t.Fatalf("%s: broadcast never completed", s.Name())
		}
		if !slices.Equal(targets, want) || !slices.Equal(c.Computes(), want) {
			t.Errorf("%s: broadcast changed its target slice", s.Name())
		}
	}
}
