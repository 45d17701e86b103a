// Package maprange_good visits maps the sanctioned ways: through
// mapkeys.Sorted, or by keeping a slice where the keys are dense IDs.
// Lookups, stores, deletes and len are not ranges and stay silent.
package maprange_good

import (
	"time"

	"eslurm/internal/mapkeys"
	"eslurm/internal/simnet"
)

// SortedKeys is one helper call.
func SortedKeys(m map[string]int) []string { return mapkeys.Sorted(m) }

// ScheduleSorted drives the event-carrying calls in sorted-key order.
func ScheduleSorted(e *simnet.Engine, m map[string]func()) {
	for _, k := range mapkeys.Sorted(m) {
		e.After(time.Second, m[k])
	}
}

// Sum visits the entries in sorted-key order.
func Sum(m map[string]int) int {
	total := 0
	for _, k := range mapkeys.Sorted(m) {
		total += m[k]
	}
	return total
}

// Dense keeps per-ID values in a slice indexed by the ID, so it visits
// them in ID order without a map.
func Dense(self []time.Duration, touched []int) time.Duration {
	var total time.Duration
	for _, id := range touched {
		total += self[id]
	}
	return total
}

// Bump reads and writes a map without ranging over it.
func Bump(m map[string]int, k string) int {
	m[k]++
	delete(m, "stale")
	return m[k] + len(m)
}
