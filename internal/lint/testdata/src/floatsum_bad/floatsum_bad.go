//eslurmlint:testpath eslurm/internal/floatsum_bad

// Package floatsum_bad accumulates floats in map-iteration order; every
// reduction form must fire maporder.
package floatsum_bad

// Sum is the canonical violation: FP addition is not associative, so the
// result's bits depend on Go's per-run map order.
func Sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want "accumulates floats into total"
		total += v
	}
	return total
}

type agg struct{ total float64 }

// SubField accumulates into a struct field with the subtraction form.
func (a *agg) SubField(m map[string]float64) {
	for _, v := range m { // want "accumulates floats into a.total"
		a.total -= v
	}
}

// Product uses the expanded x = x * v form on float32.
func Product(m map[int]float32) float32 {
	p := float32(1)
	for _, v := range m { // want "accumulates floats into p"
		p = p * v
	}
	return p
}

// KeyedExpanded accumulates with the expanded form through the key side.
func KeyedExpanded(m map[float64]bool) float64 {
	var total float64
	for k := range m { // want "accumulates floats into total"
		total = total + k
	}
	return total
}
