//eslurmlint:testpath eslurm/internal/floatsum_suppressed

// Package floatsum_suppressed pins that maporder's float-accumulation
// finding is silenced by an ignore directive with a reason.
package floatsum_suppressed

// CountHalves sums values known to be exactly representable; the site is
// provably associative and carries the justification.
func CountHalves(m map[string]float64) float64 {
	var total float64
	//eslurmlint:ignore maporder every addend is 0.5 exactly; dyadic sums this small are associative
	for range m {
		total += 0.5
	}
	return total
}
