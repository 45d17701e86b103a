//eslurmlint:testpath eslurm/internal/floatsum_bad

// Package floatsum_bad accumulates over maps; every reduction fires the
// map-range ban. A float sum in map order changes its low-order bits with
// the order, since FP addition is not associative; integer sums and
// extrema do not, but a ban does not ask.
package floatsum_bad

import "sort"

// Sum is the canonical violation: FP addition is not associative, so the
// result's bits depend on Go's per-run map order.
func Sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want "range over a map"
		total += v
	}
	return total
}

type agg struct{ total float64 }

// SubField accumulates into a struct field with the subtraction form.
func (a *agg) SubField(m map[string]float64) {
	for _, v := range m { // want "range over a map"
		a.total -= v
	}
}

// Product uses the expanded x = x * v form on float32.
func Product(m map[int]float32) float32 {
	p := float32(1)
	for _, v := range m { // want "range over a map"
		p = p * v
	}
	return p
}

// KeyedExpanded accumulates with the expanded form through the key side.
func KeyedExpanded(m map[float64]bool) float64 {
	var total float64
	for k := range m { // want "range over a map"
		total = total + k
	}
	return total
}

// IntSum is associative and commutative, so the order cannot leak into
// it; it ranges over a map all the same.
func IntSum(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over a map"
		total += v
	}
	return total
}

// SortedSum accumulates in sorted-key order, but collects the keys with a
// map range of its own (floatsum_good.SortedSum is the helper form).
func SortedSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m { // want "range over a map"
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// MaxVal only overwrites; max is order-independent, and a plain assign
// is not a reduction.
func MaxVal(m map[string]float64) float64 {
	best := 0.0
	for _, v := range m { // want "range over a map"
		if v > best {
			best = v
		}
	}
	return best
}
