// Package a draws from the shared "arrivals" label and one of its own.
package a

import "randlabelfixture/engine"

// Draw derives two streams.
func Draw(e *engine.Engine) int {
	return e.Rand("arrivals").Intn(10) + e.Rand("a.own").Intn(10)
}
