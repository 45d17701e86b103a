// Package b repeats a's "arrivals" label and builds one label at run
// time, which the scan cannot follow.
package b

import "randlabelfixture/engine"

// Draw derives the colliding stream and a computed one.
func Draw(e *engine.Engine, label string) int {
	n := e.Rand("arrivals").Intn(10)
	if label == "" {
		return n
	}
	return n + e.Rand(label).Intn(10)
}
