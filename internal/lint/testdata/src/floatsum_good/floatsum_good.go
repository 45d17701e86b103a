//eslurmlint:testpath eslurm/internal/floatsum_good

// Package floatsum_good holds the compliant reductions: ordered
// collections, associative integer sums, the sorted-keys fix, and
// non-accumulating float writes. None may fire maporder.
package floatsum_good

import "sort"

// SliceSum iterates an ordered collection: deterministic.
func SliceSum(xs []float64) float64 {
	var total float64
	for _, v := range xs {
		total += v
	}
	return total
}

// IntSum over a map is fine: integer addition is associative and
// commutative, so order cannot leak (this is maporder_good.Sum's case).
func IntSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// SortedSum is the sanctioned fix: accumulate in sorted-key order.
func SortedSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
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
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
