package comm

import (
	"runtime"
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
// wire's callbacks, the sender's slot and the span attributes.
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
}

// TestChainFitsItsSizeClass: a message in flight holds one pooled chain,
// so a chain's size class is paid once per concurrent message; past 80
// bytes it rounds up to the 96-byte class.
func TestChainFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(chain{}); size > 80 {
		t.Errorf("chain is %d bytes, budget 80", size)
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
		run() // the origin's queue, the chain and event pools
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

// TestAllocsColdBroadcast budgets one broadcast on a fresh Broadcaster,
// the broadcaster included: what a node costs before any pool is warm. A
// sender's slots are a count in one []int32 (4 bytes a node), so no
// sender gets an object of its own — the Ring and the Binomial make every
// target a sender — and a Star makes a chain only per slot, not per
// target: the targets past its slots wait as one list. A Binomial's last
// round has half its targets in flight at once, each with a chain and a
// flight, which is its floor. Each budget fails a 48-byte object per
// sender or a chain per star target (with those: star 1.07 objects / 191
// bytes per target, ring 1.01 / 68, binomial 1.25 / 191).
func TestAllocsColdBroadcast(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		s              Structure
		targets, slots int
		objects, bytes float64 // per target
	}{
		{Star{}, 16384, 1024, 0.2, 48},
		{Ring{}, 4096, 128, 0.05, 24},
		{Binomial{}, 4096, 128, 0.85, 170},
	} {
		e := simnet.NewEngine(27)
		c := cluster.New(e, cluster.Config{Computes: tc.targets, Satellites: 1})
		delivered := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := NewBroadcaster(c)
		b.MaxConcurrent = tc.slots
		tc.s.Broadcast(b, c.Satellites()[0], c.Computes(), 512, func(r Result) { delivered = r.Delivered })
		e.Run()
		runtime.ReadMemStats(&after)
		if delivered != tc.targets {
			t.Fatalf("%s: delivered %d/%d", tc.s.Name(), delivered, tc.targets)
		}
		n := float64(tc.targets)
		objects, bytes := float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n
		if objects > tc.objects || bytes > tc.bytes {
			t.Errorf("%s: %.3f objects and %.1f bytes per target, budget %.2f and %.0f",
				tc.s.Name(), objects, bytes, tc.objects, tc.bytes)
		}
		t.Logf("%s: %.3f objects, %.1f bytes per target", tc.s.Name(), objects, bytes)
	}
}

// TestLimiterQueueReleasesChains: once a Star far wider than the origin's
// connection limit has drained, the origin's queue holds no chain and no
// star — a popped item that kept its pointer would pin a chain or a star's
// run, and through it the whole broadcast, until the array happened to be
// reallocated — and none of its slots is in use.
func TestLimiterQueueReleasesChains(t *testing.T) {
	const targets = 4096
	e := simnet.NewEngine(23)
	c := cluster.New(e, cluster.Config{Computes: targets, Satellites: 1})
	b := NewBroadcaster(c)
	origin := c.Satellites()[0]
	delivered := 0
	Star{}.Broadcast(b, origin, c.Computes(), 512, func(r Result) { delivered = r.Delivered })
	q := b.waiting[origin]
	if q == nil || len(q.items)-q.head != 1 || q.items[q.head].star == nil {
		t.Fatal("the star's waiting targets are not one item of the origin's queue")
	}
	if r := q.items[q.head].star; len(r.list)-r.next != targets-b.MaxConcurrent {
		t.Fatalf("%d targets wait behind %d slots, want %d", len(r.list)-r.next, b.MaxConcurrent, targets-b.MaxConcurrent)
	}
	if b.made != b.MaxConcurrent {
		t.Errorf("%d chains made at dispatch, want one per slot (%d)", b.made, b.MaxConcurrent)
	}
	e.Run()
	if delivered != targets {
		t.Fatalf("delivered %d/%d", delivered, targets)
	}
	if len(q.items) != 0 || q.head != 0 || b.slots[origin] != 0 {
		t.Errorf("drained queue: %d items from head %d, %d slots in use; want 0, 0, 0", len(q.items), q.head, b.slots[origin])
	}
	for i, w := range q.items[:cap(q.items)] {
		if w != (waiter{}) {
			t.Fatalf("queue item %d of %d still holds a chain or a star after the drain", i, cap(q.items))
		}
	}
}

// TestSaturatedSenderOrderPinned: a sender at its connection limit serves
// its waiting sends first come, first served, whether a send waits as its
// own chain or as one of a Star's waiting targets. One origin with four
// slots sends two Stars with Sends between and after them; three targets
// are dead, so their chains hold a slot through every retry. The engine's
// event stream, the tracer's dump and every resolution (which message,
// where, when) are pinned, untraced and traced.
func TestSaturatedSenderOrderPinned(t *testing.T) {
	const engineDigest, tracerDigest = 0x56fe74ee3d60a6d1, 0xb1e516190754a114
	type resolution struct {
		star bool
		to   cluster.NodeID
		ok   bool
		at   time.Duration
	}
	want := []resolution{
		{true, 3, true, 499586}, {true, 2, true, 531497}, {true, 5, true, 549642},
		{true, 6, true, 996520}, {true, 7, true, 1079587}, {true, 8, true, 1104994},
		{true, 9, true, 1506820}, {true, 11, true, 1610494}, {true, 10, true, 1649435},
		{false, 22, true, 2078157}, {true, 12, true, 2207622}, {true, 13, true, 2593916},
		{true, 14, true, 2691662}, {true, 16, true, 3180579}, {true, 17, true, 3727593},
		{true, 18, true, 4215164}, {true, 19, true, 4714044}, {true, 20, true, 5267730},
		{true, 21, true, 5788265}, {false, 24, true, 6286056}, {true, 4, false, 3000090000},
		{false, 23, false, 3001700494}, {true, 15, false, 3002683916},
	}
	for _, traced := range []bool{false, true} {
		e := simnet.NewEngine(26)
		c := cluster.New(e, cluster.Config{Computes: 24, Satellites: 1})
		if traced {
			e.EnableTracing()
		}
		e.EnableDigest()
		b := NewBroadcaster(c)
		b.MaxConcurrent = 4
		origin, nodes := c.Satellites()[0], c.Computes()
		for _, i := range []int{2, 13, 21} {
			c.Fail(nodes[i])
		}
		var got []resolution
		b.OnResolve = func(to cluster.NodeID, ok bool) { got = append(got, resolution{true, to, ok, e.Now()}) }
		send := func(to cluster.NodeID) {
			b.Send(origin, to, 128, 0, func(ok bool) { got = append(got, resolution{false, to, ok, e.Now()}) })
		}
		Star{}.Broadcast(b, origin, nodes[:10], 512, func(Result) {})
		send(nodes[20])
		send(nodes[21])
		Star{}.Broadcast(b, origin, nodes[10:20], 512, func(Result) {})
		send(nodes[22])
		e.Run()
		if !slices.Equal(got, want) {
			t.Errorf("traced=%v: resolutions\n%v\nwant\n%v", traced, got, want)
		}
		if d := e.Digest(); d != engineDigest {
			t.Errorf("traced=%v: engine digest %#x, want %#x", traced, d, uint64(engineDigest))
		}
		if d := e.Tracer().Digest(); traced && d != tracerDigest {
			t.Errorf("tracer digest %#x, want %#x", d, uint64(tracerDigest))
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
