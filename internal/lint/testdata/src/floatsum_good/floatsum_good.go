//eslurmlint:testpath eslurm/internal/floatsum_good

// Package floatsum_good holds the compliant reductions: ordered
// collections and the sorted-keys helper.
package floatsum_good

import "eslurm/internal/mapkeys"

// SliceSum iterates an ordered collection: deterministic.
func SliceSum(xs []float64) float64 {
	var total float64
	for _, v := range xs {
		total += v
	}
	return total
}

// SortedSum is the sanctioned fix: accumulate in sorted-key order.
func SortedSum(m map[string]float64) float64 {
	var total float64
	for _, k := range mapkeys.Sorted(m) {
		total += m[k]
	}
	return total
}
