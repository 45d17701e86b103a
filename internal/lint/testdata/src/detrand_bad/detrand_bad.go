// Package detrand_bad draws from the global math/rand and math/rand/v2
// generators and bakes a constant seed into a source — all forbidden.
package detrand_bad

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func Bad(n int) int {
	rand.Seed(99)                      // want "global math/rand generator"
	x := rand.Intn(n)                  // want "global math/rand generator"
	f := rand.Float64()                // want "global math/rand generator"
	rand.Shuffle(n, func(i, j int) {}) // want "global math/rand generator"
	r := rand.New(rand.NewSource(42))  // want "constant seed"
	// Method calls on a threaded *rand.Rand share names with the global
	// functions and must NOT be flagged.
	return x + r.Intn(n) + int(f)
}

// Engine mimics the simnet scheduling surface.
type Engine struct{}

func (e *Engine) RunUntil(deadline int64)                            {}
func (e *Engine) RunUntilDone(deadline int64, done func() bool) bool { return true }

// A global draw handed straight to the engine is caught at the draw.
func RunNoisy(e *Engine) bool {
	e.RunUntil(rand.Int63())                                         // want "rand.Int63 uses the global math/rand generator"
	return e.RunUntilDone(rand.Int63(), func() bool { return true }) // want "rand.Int63"
}

// The math/rand/v2 package-level draws share one process-wide generator
// seeded from entropy, like v1's.
func BadV2(n int) int {
	x := randv2.IntN(n)                  // want "rand.IntN uses the global math/rand/v2 generator"
	y := randv2.Int64N(int64(n))         // want "rand.Int64N uses the global math/rand/v2 generator"
	f := randv2.Float64()                // want "rand.Float64 uses the global math/rand/v2 generator"
	d := randv2.N(time.Second)           // want "rand.N uses the global math/rand/v2 generator"
	randv2.Shuffle(n, func(i, j int) {}) // want "rand.Shuffle uses the global math/rand/v2 generator"
	_ = randv2.Perm(n)                   // want "rand.Perm uses the global math/rand/v2 generator"
	r := randv2.New(randv2.NewPCG(1, 2)) // want "rand.NewPCG with a constant seed"
	// A threaded *rand.Rand is fine in v2 too.
	return x + int(y) + int(f) + int(d) + r.IntN(n)
}
