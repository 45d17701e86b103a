//eslurmlint:testpath eslurm/internal/globalmut_good

// Package globalmut_good is compliant: constants, error sentinels
// initialized at their declaration, functions in place of function
// values, and function-local mutable state are all fine.
package globalmut_good

import "errors"

const maxNodes = 4096

// defaultSeed is a constant, not a read-only var.
const defaultSeed int64 = 42

// ErrDrained is the sentinel-error idiom: error-typed and initialized at
// its declaration.
var ErrDrained = errors.New("globalmut_good: drained")

// clamp is a function, not a function-valued var.
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lookup builds its table per call: mutable state stays function-local.
func Lookup(k string) int {
	table := map[string]int{"a": 1, "b": 2}
	return clamp(table[k], 0, maxNodes)
}

func Seed() int64 { return defaultSeed }
