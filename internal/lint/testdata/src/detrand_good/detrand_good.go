// Package detrand_good threads all randomness through explicitly seeded
// *rand.Rand values — the sanctioned pattern.
package detrand_good

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// NewStream threads a caller-provided seed; the seed expression is a
// variable, not a constant, so detrand stays silent.
func NewStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// NewPCG threads the seed into one of its two words: a call fires only
// when every argument is a constant.
func NewPCG(seed uint64) *randv2.Rand {
	return randv2.New(randv2.NewPCG(seed, 2))
}

func Draw(r *rand.Rand, n int) int {
	r.Shuffle(n, func(i, j int) {})
	return r.Intn(n)
}
