package fptree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestLeafSlotsSmall(t *testing.T) {
	// n=1: single node is a leaf.
	if got := LeafSlots(1, 4); !got[0] {
		t.Error("single node must be a leaf")
	}
	// n < w: every node is a direct child and hence a leaf.
	got := LeafSlots(3, 4)
	for i, b := range got {
		if !b {
			t.Errorf("n<w: position %d not leaf", i)
		}
	}
}

func TestLeafSlotsKnownShape(t *testing.T) {
	// n=6, w=2: groups [3,3]; heads at 0 and 3 interior, each head's
	// remainder of 2 nodes < w... 2 >= w=2 so split again into [1,1]:
	// positions 1,2 leaves and 4,5 leaves.
	got := LeafSlots(6, 2)
	want := []bool{false, true, true, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LeafSlots(6,2) = %v, want %v", got, want)
	}
}

func TestLeafSlotsWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 1 did not panic")
		}
	}()
	LeafSlots(10, 1)
}

func TestBuildMatchesLeafSlots(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33, 100, 1000} {
		for _, w := range []int{2, 4, 32} {
			tr := Build(ints(n), w)
			if tr.Size() != n {
				t.Fatalf("n=%d w=%d: Size=%d", n, w, tr.Size())
			}
			slots := LeafSlots(n, w)
			byVal := make(map[int]bool)
			tr.Walk(func(v, _ int, leaf bool) { byVal[v] = leaf })
			if len(byVal) != n {
				t.Fatalf("n=%d w=%d: walk visited %d nodes", n, w, len(byVal))
			}
			for i := 0; i < n; i++ {
				if byVal[i] != slots[i] {
					t.Fatalf("n=%d w=%d: position %d leaf mismatch: tree=%v slots=%v",
						n, w, i, byVal[i], slots[i])
				}
			}
		}
	}
}

func TestBuildValuesPreserveOrder(t *testing.T) {
	tr := Build(ints(50), 4)
	if !reflect.DeepEqual(tr.Values(), ints(50)) {
		t.Error("Values() does not return participants in list order")
	}
}

func TestBuildWidthRespected(t *testing.T) {
	tr := Build(ints(500), 8)
	var check func(g Groups)
	check = func(g Groups) {
		n := 0
		for ; g.Next(); n++ {
			check(tr.Children(g.Lo, g.Hi))
			if f := tr.Fanout(g.Lo, g.Hi); f > 8 {
				t.Fatalf("fan-out %d > width 8", f)
			}
		}
		if n > 8 {
			t.Fatalf("fan-out %d > width 8", n)
		}
	}
	check(tr.Roots())
}

func TestDepthGrowsLogarithmically(t *testing.T) {
	d1 := Build(ints(32), 32).Depth()
	if d1 != 1 {
		t.Errorf("32 nodes width 32: depth = %d, want 1", d1)
	}
	d2 := Build(ints(1024), 32).Depth()
	if d2 < 2 || d2 > 3 {
		t.Errorf("1024 nodes width 32: depth = %d, want 2-3", d2)
	}
	d3 := Build(ints(20000), 32).Depth()
	if d3 > 4 {
		t.Errorf("20000 nodes width 32: depth = %d, want <= 4", d3)
	}
}

func TestRearrangePlacesPredictedAtLeaves(t *testing.T) {
	n, w := 200, 4
	predicted := map[int]bool{3: true, 17: true, 42: true, 99: true, 150: true}
	out := Rearrange(ints(n), func(v int) bool { return predicted[v] }, w)
	slots := LeafSlots(n, w)
	for i, v := range out {
		if predicted[v] && !slots[i] {
			t.Errorf("predicted node %d placed at interior position %d", v, i)
		}
	}
}

func TestRearrangeEmptyPredictionIsIdentity(t *testing.T) {
	in := ints(137)
	out := Rearrange(in, func(int) bool { return false }, 32)
	if !reflect.DeepEqual(in, out) {
		t.Error("rearrange with no predictions changed the list")
	}
}

func TestRearrangeAllPredicted(t *testing.T) {
	in := ints(64)
	out := Rearrange(in, func(int) bool { return true }, 8)
	if !reflect.DeepEqual(in, out) {
		t.Error("rearrange with all-predicted must preserve order")
	}
}

func TestRearrangeMorePredictedThanLeaves(t *testing.T) {
	n, w := 100, 2 // few leaves relative to predictions
	leaves := LeafCount(n, w)
	pred := func(v int) bool { return v < leaves+10 }
	out := Rearrange(ints(n), pred, w)
	slots := LeafSlots(n, w)
	// Every leaf slot must hold a predicted node when predictions overflow.
	for i, v := range out {
		if slots[i] && !pred(v) {
			t.Errorf("leaf slot %d holds healthy node %d despite overflow of predictions", i, v)
		}
	}
}

func TestFineTuneSwapsMinimally(t *testing.T) {
	n, w := 100, 4
	list := ints(n)
	predicted := map[int]bool{0: true} // position 0 is interior for n>w
	swaps := FineTune(list, func(v int) bool { return predicted[v] }, w)
	if swaps != 1 {
		t.Fatalf("swaps = %d, want 1", swaps)
	}
	slots := LeafSlots(n, w)
	for i, v := range list {
		if predicted[v] && !slots[i] {
			t.Error("predicted node still interior after FineTune")
		}
	}
	// All but two positions untouched.
	moved := 0
	for i, v := range list {
		if v != i {
			moved++
		}
	}
	if moved != 2 {
		t.Errorf("FineTune moved %d nodes, want 2", moved)
	}
}

func TestFineTuneNoOpWhenAlreadyPlaced(t *testing.T) {
	n, w := 50, 4
	list := ints(n)
	slots := LeafSlots(n, w)
	// Predict a node that is already at a leaf.
	leafVal := -1
	for i, s := range slots {
		if s {
			leafVal = list[i]
			break
		}
	}
	swaps := FineTune(list, func(v int) bool { return v == leafVal }, w)
	if swaps != 0 {
		t.Errorf("swaps = %d, want 0", swaps)
	}
}

func TestDescendantCounts(t *testing.T) {
	n, w := 100, 4
	tr := Build(ints(n), w)
	counts := DescendantCounts(tr)
	total := 0
	for _, c := range counts {
		total += c
	}
	// Sum of descendant counts = sum over nodes of (depth below them) =
	// total number of (ancestor, descendant) pairs; all n nodes minus the
	// roots are someone's descendant, counted once per ancestor.
	if counts[0] == 0 {
		t.Error("first node should have descendants for n >> w")
	}
	slots := LeafSlots(n, w)
	idx := 0
	tr.Walk(func(_ int, _ int, leaf bool) {
		if leaf != slots[idx] {
			t.Error("walk order diverges from LeafSlots order")
		}
		if leaf && counts[idx] != 0 {
			t.Errorf("leaf %d has descendant count %d", idx, counts[idx])
		}
		idx++
	})
	if total == 0 {
		t.Error("descendant counts all zero")
	}
}

// Property: Rearrange returns a permutation of its input.
func TestPropertyRearrangeIsPermutation(t *testing.T) {
	f := func(n uint8, w uint8, seed int64) bool {
		size := int(n%200) + 1
		width := int(w%30) + 2
		rng := rand.New(rand.NewSource(seed))
		pred := make(map[int]bool)
		for i := 0; i < size; i++ {
			if rng.Float64() < 0.2 {
				pred[i] = true
			}
		}
		out := Rearrange(ints(size), func(v int) bool { return pred[v] }, width)
		if len(out) != size {
			return false
		}
		seen := make(map[int]bool, size)
		for _, v := range out {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: when |predicted| <= |leaf slots|, every predicted node ends at a
// leaf (the paper's 81.7% placement figure is bounded by prediction recall,
// not by the rearranger, which is exact).
func TestPropertyRearrangeExactWhenFits(t *testing.T) {
	f := func(n uint16, w uint8, seed int64) bool {
		size := int(n%300) + 2
		width := int(w%30) + 2
		leaves := LeafCount(size, width)
		rng := rand.New(rand.NewSource(seed))
		pred := make(map[int]bool)
		for len(pred) < leaves/2 {
			pred[rng.Intn(size)] = true
		}
		out := Rearrange(ints(size), func(v int) bool { return pred[v] }, width)
		slots := LeafSlots(size, width)
		for i, v := range out {
			if pred[v] && !slots[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: leaf count is at least half the nodes for any width >= 2
// (every interior node "consumes" at most one head position per group).
func TestPropertyLeafFractionBounded(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		size := int(n%5000) + 1
		width := int(w%60) + 2
		lc := LeafCount(size, width)
		return lc >= 1 && lc <= size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLeafSlots20K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LeafSlots(20480, DefaultWidth)
	}
}

func BenchmarkRearrange20K(b *testing.B) {
	list := ints(20480)
	pred := func(v int) bool { return v%50 == 0 } // 2% failure, paper's regime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rearrange(list, pred, DefaultWidth)
	}
}

func BenchmarkBuild20K(b *testing.B) {
	list := ints(20480)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(list, DefaultWidth)
	}
}

// refNode is one vertex of the reference tree: the same grouping
// materialized as one node and one children slice per participant, the
// oracle the range tree is held to.
type refNode struct {
	value    int
	children []*refNode
}

// refGroupSizes splits n items into g contiguous groups as evenly as
// possible: the first n%g groups get one extra item.
func refGroupSizes(n, g int) []int {
	sizes := make([]int, g)
	base, extra := n/g, n%g
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// refBuild materializes the relay tree's first layer, one node and one
// children slice per participant.
func refBuild(list []int, w int) []*refNode {
	var rec func(lo, hi int) []*refNode
	rec = func(lo, hi int) []*refNode {
		n := hi - lo
		if n <= 0 {
			return nil
		}
		g := w
		if n < w {
			g = n
		}
		nodes := make([]*refNode, 0, g)
		pos := lo
		for _, sz := range refGroupSizes(n, g) {
			if sz == 0 {
				continue
			}
			nd := &refNode{value: list[pos]}
			nd.children = rec(pos+1, pos+sz)
			nodes = append(nodes, nd)
			pos += sz
		}
		return nodes
	}
	return rec(0, len(list))
}

// refLeafSlots is LeafSlots as a recursion over group-size slices.
func refLeafSlots(n, w int) []bool {
	leaf := make([]bool, n)
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		n := hi - lo
		switch {
		case n <= 0:
			return
		case n == 1:
			leaf[lo] = true
			return
		}
		g := w
		if n < w {
			g = n
		}
		pos := lo
		for _, sz := range refGroupSizes(n, g) {
			if sz == 0 {
				continue
			}
			if sz == 1 {
				leaf[pos] = true
			} else {
				rec(pos+1, pos+sz)
			}
			pos += sz
		}
	}
	rec(0, n)
	return leaf
}

func refDepth(ns []*refNode) int {
	if len(ns) == 0 {
		return 0
	}
	d := 0
	for _, n := range ns {
		d = max(d, refDepth(n.children))
	}
	return d + 1
}

// refWalk renders the (value, depth, leaf) sequence in visit order.
func refWalk(ns []*refNode, depth int, out *[]string) {
	for _, n := range ns {
		*out = append(*out, fmt.Sprintf("%d/%d/%v", n.value, depth, len(n.children) == 0))
		refWalk(n.children, depth+1, out)
	}
}

// refDescendants appends, in visit order, each node's descendant count.
func refDescendants(n *refNode, out *[]int) int {
	my := len(*out)
	*out = append(*out, 0)
	total := 0
	for _, c := range n.children {
		total += 1 + refDescendants(c, out)
	}
	(*out)[my] = total
	return total
}

// TestRangeTreeMatchesReference holds the range tree to the materialized
// reference tree: the same walk (value, depth, leaf), leaf slots, descendant
// counts and depth, for every n in [0, 300] and w in [2, 9] and at the
// paper's scale (20,480 nodes, width 32). The list is shuffled so a value
// mix-up cannot hide behind value == position.
func TestRangeTreeMatchesReference(t *testing.T) {
	type shape struct{ n, w int }
	var cases []shape
	for n := 0; n <= 300; n++ {
		for w := 2; w <= 9; w++ {
			cases = append(cases, shape{n, w})
		}
	}
	cases = append(cases, shape{20480, 32})
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		list := ints(c.n)
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		ref := refBuild(list, c.w)
		tr := Build(list, c.w)

		var want, got []string
		refWalk(ref, 0, &want)
		tr.Walk(func(v, depth int, leaf bool) { got = append(got, fmt.Sprintf("%d/%d/%v", v, depth, leaf)) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d w=%d: walk differs from the reference", c.n, c.w)
		}
		if got, want := LeafSlots(c.n, c.w), refLeafSlots(c.n, c.w); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d w=%d: LeafSlots %v, reference %v", c.n, c.w, got, want)
		}
		wantCounts := []int{}
		for _, r := range ref {
			refDescendants(r, &wantCounts)
		}
		if got := DescendantCounts(tr); !reflect.DeepEqual(got, wantCounts) {
			t.Fatalf("n=%d w=%d: DescendantCounts %v, reference %v", c.n, c.w, got, wantCounts)
		}
		if got, want := tr.Depth(), refDepth(ref); got != want {
			t.Fatalf("n=%d w=%d: Depth %d, reference %d", c.n, c.w, got, want)
		}
	}
}

// refRearrange is Rearrange over a leaf-slot array and two staged class
// lists, the form the slot-walking rearranger is held to.
func refRearrange(list []int, predicted func(int) bool, w int) []int {
	n := len(list)
	if n == 0 {
		return nil
	}
	leaf := refLeafSlots(n, w)
	var bad, good []int
	for _, v := range list {
		if predicted(v) {
			bad = append(bad, v)
		} else {
			good = append(good, v)
		}
	}
	out := make([]int, 0, n)
	bi, gi := 0, 0
	for pos := 0; pos < n; pos++ {
		takeBad := leaf[pos]
		if takeBad && bi >= len(bad) {
			takeBad = false
		}
		if !takeBad && gi >= len(good) {
			takeBad = true
		}
		if takeBad {
			out = append(out, bad[bi])
			bi++
		} else {
			out = append(out, good[gi])
			gi++
		}
	}
	return out
}

// TestRearrangeMatchesReference holds Rearrange and AppendRearranged to the
// staged reference for every n in [0, 300], w in {2, 3, 5, 32} and a
// prediction share from none through more predicted nodes than leaf slots
// to all of them, on a shuffled list. AppendRearranged must leave dst's
// prefix alone, and with room in dst it allocates nothing when no node is
// predicted.
func TestRearrangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 300; n++ {
		list := ints(n)
		rng.Shuffle(n, func(i, j int) { list[i], list[j] = list[j], list[i] })
		for _, w := range []int{2, 3, 5, 32} {
			for _, share := range []float64{0, 0.02, 0.3, 0.7, 1} {
				pred := make([]bool, n)
				for i := range pred {
					pred[i] = rng.Float64() < share
				}
				predicted := func(v int) bool { return pred[v] }
				want := refRearrange(list, predicted, w)
				if got := Rearrange(list, predicted, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d w=%d share=%v: Rearrange %v, reference %v", n, w, share, got, want)
				}
				dst := append(make([]int, 0, n+1), -1)
				if got := AppendRearranged(dst, list, predicted, w); got[0] != -1 || !slices.Equal(got[1:], want) {
					t.Fatalf("n=%d w=%d share=%v: AppendRearranged %v, reference %v after -1", n, w, share, got, want)
				}
			}
		}
	}
	list, dst := ints(4096), make([]int, 0, 4096)
	if a := testing.AllocsPerRun(10, func() { AppendRearranged(dst, list, func(int) bool { return false }, DefaultWidth) }); a != 0 {
		t.Errorf("AppendRearranged with no prediction: %v allocations, want 0", a)
	}
}
