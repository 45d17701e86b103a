// Package mapkeys is the one place in the module that ranges over a map.
//
// Determinism: Go randomizes map iteration order on every run, so a loop
// over a map hands its body the entries in an order no seed fixes, and
// anything the body does in that order (an append, a send, a float sum,
// a key kept as the first or last seen) differs between same-seed runs.
// The determinism linter (internal/lint, maprange) therefore rejects a
// range over a map in every other package. Sorted returns the keys in
// ascending order, so ranging over its result visits the same map in
// the same order on every run.
package mapkeys

import (
	"cmp"
	"slices"
)

// Sorted returns the keys of m in ascending order.
func Sorted[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
