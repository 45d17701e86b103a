// Package c uses one label twice: inside one package a shared stream is
// a choice, not a collision.
package c

import "randlabelfixture/engine"

// Draw continues one stream from two sites.
func Draw(e *engine.Engine) int {
	return e.Rand("c.jitter").Intn(10) + e.Rand("c.jitter").Intn(10)
}
