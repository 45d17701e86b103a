// Package fptree implements the failure-prediction-based communication tree
// of Section IV of the paper.
//
// A satellite node receiving a broadcast task holds an ordered list of
// participating nodes. The list's order fully determines the shape of the
// k-ary relay tree ("if all nodes use the same grouping method ... the
// node's location in the initial node list corresponds to its location in
// the tree"). The FP-Tree constructor therefore has three parts, mirroring
// Fig. 4:
//
//  1. LeafSlots — simulate the recursive grouping to find which positions
//     of the list end up as tree leaves (Eq. 2, Θ(n)).
//  2. A failure predictor (package predict) supplies the set of nodes
//     expected to fail.
//  3. Rearrange — an O(n) pass that fills leaf positions preferentially
//     with predicted-failed nodes and interior positions with healthy ones.
//
// The list is the tree: a subtree is a half-open range [lo, hi) of the
// list headed by list[lo], and its children are the width-way groups of
// [lo+1, hi). Build wraps a list in O(1) and the broadcast engines in
// package comm walk it with Groups, which allocates nothing.
// All functions are pure and generic so they are directly
// property-testable — and deterministic: tree shape is a function of list
// order and width alone, with no RNG or map iteration anywhere.
package fptree

import "fmt"

// DefaultWidth is the tree width used across the experiments. With w=32 a
// 4K-node broadcast tree is 3 levels deep, matching the latency regime the
// paper reports.
const DefaultWidth = 32

// checkWidth panics on a width that cannot make a tree.
func checkWidth(w int) {
	if w < 2 {
		panic(fmt.Sprintf("fptree: width must be >= 2, got %d", w))
	}
}

// Groups walks the width-way groups a range of the list splits into, in
// list order, scanner-style: each Next that returns true sets Lo and Hi to
// the next group [Lo, Hi). The range is split as evenly as possible (the
// first n%g of the g groups get one extra item) into g = min(w, n) groups,
// so no group is empty. A Groups value allocates nothing.
type Groups struct {
	// Lo and Hi bound the current group after a Next that returned true.
	Lo, Hi int

	left, base, extra int
}

// groups returns the width-w groups of [lo, hi).
func groups(lo, hi, w int) Groups {
	n := hi - lo
	if n <= 0 {
		return Groups{}
	}
	g := min(w, n)
	return Groups{Hi: lo, left: g, base: n / g, extra: n % g}
}

// Next advances to the next group and reports whether there was one.
func (g *Groups) Next() bool {
	if g.left == 0 {
		return false
	}
	g.left--
	sz := g.base
	if g.extra > 0 {
		g.extra--
		sz++
	}
	g.Lo, g.Hi = g.Hi, g.Hi+sz
	return true
}

// LeafSlots reports, for each position in an n-node participant list, whether
// the node at that position becomes a leaf of the width-w relay tree. It is
// the "leaf-nodes location" component of Fig. 4(b) and runs in Θ(n).
func LeafSlots(n, w int) []bool {
	checkWidth(w)
	leaf := make([]bool, n)
	eachSubtree(0, n, w, 0, func(lo, hi, _ int) { leaf[lo] = hi-lo == 1 })
	return leaf
}

// LeafCount returns the number of leaf slots for an n-node width-w tree
// without allocating the slot array.
func LeafCount(n, w int) int {
	checkWidth(w)
	k := 0
	eachSubtree(0, n, w, 0, func(lo, hi, _ int) {
		if hi-lo == 1 {
			k++
		}
	})
	return k
}

// eachSubtree calls visit for every subtree among the width-w groups of
// [lo, hi) and below them, in list order (each head before its subtree),
// with its range and depth (the groups of [lo, hi) at depth). A leaf has
// nothing below it, so the walk does not descend into one.
func eachSubtree(lo, hi, w, depth int, visit func(lo, hi, depth int)) {
	for g := groups(lo, hi, w); g.Next(); {
		visit(g.Lo, g.Hi, depth)
		if g.Hi-g.Lo > 1 {
			eachSubtree(g.Lo+1, g.Hi, w, depth+1, visit)
		}
	}
}

// Rearrange returns a permutation of list in which predicted-failed nodes
// (per the predicted callback) occupy leaf slots of the width-w tree and
// healthy nodes occupy interior slots, to the extent counts allow. The
// relative order within each class is preserved, so for an empty prediction
// set the output equals the input. Runs in O(n). This is the "nodelist
// rearranger" of Fig. 4(c).
func Rearrange[T any](list []T, predicted func(T) bool, w int) []T {
	if len(list) == 0 {
		return nil
	}
	return AppendRearranged(make([]T, 0, len(list)), list, predicted, w)
}

// AppendRearranged appends Rearrange(list, predicted, w) to dst and returns
// the extended slice. It calls predicted once per node and, given a dst
// with room for list, allocates only the positions of the predicted nodes.
// The slots are filled in list order as the tree's subtrees are walked, so
// no leaf-slot array is built.
func AppendRearranged[T any](dst, list []T, predicted func(T) bool, w int) []T {
	checkWidth(w)
	var bad []int // the predicted nodes' positions in list, ascending
	for i, v := range list {
		if predicted(v) {
			bad = append(bad, i)
		}
	}
	if len(bad) == 0 {
		return append(dst, list...) // every slot takes the next healthy node
	}
	ng := len(list) - len(bad)
	// bi and gi count the predicted and healthy nodes placed so far; gp is
	// the next position of list that may hold a healthy node, and skip the
	// next predicted position it must step over.
	bi, gi, gp, skip := 0, 0, 0, 0
	eachSubtree(0, len(list), w, 0, func(lo, hi, _ int) {
		if hi-lo == 1 && bi < len(bad) || gi >= ng {
			dst = append(dst, list[bad[bi]])
			bi++
			return
		}
		for skip < len(bad) && bad[skip] == gp {
			skip++
			gp++
		}
		dst = append(dst, list[gp])
		gp++
		gi++
	})
	return dst
}

// FineTune adjusts an already-ordered list (e.g. one produced by a
// topology-aware placer, §IV-E last paragraph) with the minimum number of
// swaps needed to push predicted-failed nodes into leaf slots: each
// predicted node at an interior slot is swapped with a healthy node at a
// leaf slot. Unlike Rearrange it preserves the positions of all other
// nodes. Returns the number of swaps performed.
func FineTune[T any](list []T, predicted func(T) bool, w int) int {
	n := len(list)
	if n == 0 {
		return 0
	}
	leaf := LeafSlots(n, w)
	var interiorBad, leafGood []int
	for i, v := range list {
		switch {
		case !leaf[i] && predicted(v):
			interiorBad = append(interiorBad, i)
		case leaf[i] && !predicted(v):
			leafGood = append(leafGood, i)
		}
	}
	swaps := 0
	for swaps < len(interiorBad) && swaps < len(leafGood) {
		i, j := interiorBad[swaps], leafGood[swaps]
		list[i], list[j] = list[j], list[i]
		swaps++
	}
	return swaps
}

// Tree is a width-w relay tree over a participant list, and it is that
// list: the subtree [lo, hi) is headed by the participant at position lo.
// The broadcast origin (the satellite node itself) is not in the list; the
// first-layer relays it contacts directly are the heads of Roots.
type Tree[T any] struct {
	list  []T
	width int
}

// Build makes the width-w relay tree over list in O(1). The tree keeps
// list, which must not change while the tree is in use.
func Build[T any](list []T, w int) *Tree[T] {
	checkWidth(w)
	return &Tree[T]{list: list, width: w}
}

// Size returns the number of participant nodes in the tree.
func (t *Tree[T]) Size() int { return len(t.list) }

// At returns the participant at list position i: the head of every
// subtree [i, hi).
func (t *Tree[T]) At(i int) T { return t.list[i] }

// Roots walks the first layer: the subtrees the origin contacts directly.
func (t *Tree[T]) Roots() Groups { return groups(0, len(t.list), t.width) }

// Children walks the child subtrees of the subtree [lo, hi).
func (t *Tree[T]) Children(lo, hi int) Groups { return groups(lo+1, hi, t.width) }

// Fanout returns the number of children of the subtree [lo, hi).
func (t *Tree[T]) Fanout(lo, hi int) int { return min(t.width, hi-lo-1) }

// Depth returns the number of relay levels (0 for an empty tree, 1 when all
// participants are direct children of the origin). The depth of a forest
// of m nodes never falls as m grows, and the first group is the largest,
// so the deepest path runs through first groups: O(log n).
func (t *Tree[T]) Depth() int {
	d := 0
	for lo, hi := 0, len(t.list); hi > lo; d++ {
		g := groups(lo, hi, t.width)
		g.Next()
		lo, hi = g.Lo+1, g.Hi
	}
	return d
}

// Walk visits every node with its depth (first layer = 0) and whether it
// is a leaf, in list order.
func (t *Tree[T]) Walk(visit func(value T, depth int, leaf bool)) {
	eachSubtree(0, len(t.list), t.width, 0, func(lo, hi, depth int) {
		visit(t.list[lo], depth, hi-lo == 1)
	})
}

// Leaves returns the values at the tree's leaves in list order.
func (t *Tree[T]) Leaves() []T {
	var out []T
	t.Walk(func(v T, _ int, leaf bool) {
		if leaf {
			out = append(out, v)
		}
	})
	return out
}

// Values returns all participant values in list order.
func (t *Tree[T]) Values() []T { return append([]T(nil), t.list...) }

// DescendantCounts returns, per participant in list order, the number of
// descendants below it — the quantity that makes an interior failure
// expensive (Section IV: "the more descendant nodes of a failed node have,
// the higher the delay"). The head of [lo, hi) has hi-lo-1.
func DescendantCounts[T any](t *Tree[T]) []int {
	counts := make([]int, len(t.list))
	eachSubtree(0, len(t.list), t.width, 0, func(lo, hi, _ int) { counts[lo] = hi - lo - 1 })
	return counts
}
