// Package detrand_bad draws from the global math/rand generator and
// bakes a constant seed into a source — both forbidden.
package detrand_bad

import "math/rand"

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
