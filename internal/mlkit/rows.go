package mlkit

import (
	"cmp"
	"math"
	"slices"
)

// rowGroups partitions the rows of a sample matrix into classes of
// bit-identical rows. Every fit in this package is a deterministic function
// of its rows' bits, so whatever it computes from one row alone (a kernel
// row, a distance to a centroid) it computes identically for every copy of
// that row — the fits measure each class once and keep only the arithmetic
// that depends on sample order or on the targets per sample.
//
// Classes are numbered by first occurrence: rep is strictly increasing, and
// rep[of[i]] <= i for every row i. A scan that picks the first sample
// reaching an extreme therefore picks the same sample whether it walks rows
// or classes.
type rowGroups struct {
	// rep[g] is the index of the first row of class g.
	rep []int
	// of[i] is the class of row i.
	of []int
}

// groupRows classes rows by math.Float64bits of every component: -0 and +0,
// and NaNs with different payloads, stay apart (arithmetic can tell them
// apart), while NaNs with equal payloads merge (it cannot).
func groupRows(rows [][]float64) rowGroups {
	// Sorting the indices by row bits, ties by index, lays equal rows side
	// by side with the first occurrence leading each run.
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := compareBits(rows[a], rows[b]); c != 0 {
			return c
		}
		return a - b
	})
	// First of[i] is the index of the row leading i's run, then, walking the
	// rows in order so that every leader is numbered before its copies, the
	// run's class.
	g := rowGroups{of: make([]int, len(rows))}
	for k, i := range order {
		if k > 0 && compareBits(rows[order[k-1]], rows[i]) == 0 {
			g.of[i] = g.of[order[k-1]]
		} else {
			g.of[i] = i
		}
	}
	for i, lead := range g.of {
		if lead == i {
			g.of[i] = len(g.rep)
			g.rep = append(g.rep, i)
		} else {
			g.of[i] = g.of[lead]
		}
	}
	return g
}

// distinct returns the number of classes.
func (g rowGroups) distinct() int { return len(g.rep) }

// compareBits orders rows by length, then lexicographically by the bit
// patterns of their components.
func compareBits(a, b []float64) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for i, v := range a {
		if c := cmp.Compare(math.Float64bits(v), math.Float64bits(b[i])); c != 0 {
			return c
		}
	}
	return 0
}
