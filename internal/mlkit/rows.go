package mlkit

import (
	"cmp"
	"math"
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
//
// One pass over the rows: an open-addressing table keyed by rowHash holds
// 1 + the class of each hash slot's first row, and compareBits confirms a
// match, so a row either joins the class of an earlier equal row or opens
// the next class.
func groupRows(rows [][]float64) rowGroups {
	g := rowGroups{of: make([]int, len(rows))}
	size := 1
	for size < 2*len(rows) {
		size <<= 1
	}
	slot := make([]int32, size)
	mask := uint64(size - 1)
	for i, row := range rows {
		for s := rowHash(row) & mask; ; s = (s + 1) & mask {
			c := int(slot[s]) - 1
			if c < 0 {
				slot[s] = int32(len(g.rep) + 1)
				g.of[i] = len(g.rep)
				g.rep = append(g.rep, i)
				break
			}
			if compareBits(rows[g.rep[c]], row) == 0 {
				g.of[i] = c
				break
			}
		}
	}
	return g
}

// rowHash mixes a row's length and component bits into 64 bits whose low
// bits are as well spread as its high ones (the table masks them).
func rowHash(row []float64) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h = (h ^ math.Float64bits(v)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h *= 0x94d049bb133111eb
	return h ^ h>>29
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
