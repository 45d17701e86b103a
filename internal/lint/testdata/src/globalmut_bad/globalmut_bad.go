//eslurmlint:testpath eslurm/internal/globalmut_bad

// Package globalmut_bad exercises the global-state audit: every
// package-level var fires, whatever its type and whether or not anything
// writes it, except an error sentinel initialized at its declaration.
package globalmut_bad

import "sync"

var cache = map[string]int{} // want "package-level var cache (map[string]int) is mutable shared state"

var order []string // want "package-level var order ([]string) is mutable shared state"

var current *Config // want "package-level var current (*globalmut_bad.Config) is mutable shared state"

var mu sync.Mutex // want "package-level var mu (sync.Mutex) is mutable shared state"

var weights [4]float64 // want "package-level var weights ([4]float64) is mutable shared state"

var updates chan int // want "package-level var updates (chan int) is mutable shared state"

// calls is immutable-typed (int) and written.
var calls int // want "package-level var calls (int) is mutable shared state"

// sink is error-typed but not a sentinel: it has no initializer, so it
// exists only to be assigned.
var sink error // want "package-level var sink (error) is mutable shared state"

// defaultSeed is basic-typed and never written: a constant in spirit,
// which is what it has to become.
var defaultSeed int64 = 42 // want "package-level var defaultSeed (int64) is mutable shared state"

// clamp is a function value that is never reassigned: a function
// declaration says the same without a var.
var clamp = func(v, lo, hi int) int { // want "package-level var clamp (func(v int, lo int, hi int) int) is mutable shared state"
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

type Config struct{ Nodes int }

func Touch(err error) {
	mu.Lock()
	defer mu.Unlock()
	calls++
	sink = err
}

func Seed() int64 { return defaultSeed }

func Clamp(v int) int { return clamp(v, 0, 10) }
