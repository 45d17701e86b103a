//eslurmlint:testpath eslurm/internal/simnet

// Package detrand_simnet pretends to be the simnet package, whose RNG
// stream constructor is the one place allowed to fix source seeds (it
// hashes engine seed + label into them).
package detrand_simnet

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func StreamFor(hashed int64) *rand.Rand {
	_ = rand.New(rand.NewSource(12345))        // exempt: simnet owns stream construction
	_ = randv2.New(randv2.NewPCG(12345, 6789)) // and its rand/v2 twin
	return rand.New(rand.NewSource(hashed))
}
