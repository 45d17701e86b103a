// Package maporder_good shows the compliant patterns: the sorted-keys
// idiom and pure aggregation, neither of which may be flagged.
package maporder_good

import (
	"sort"
	"time"

	"eslurm/internal/simnet"
)

// SortedKeys is the sanctioned idiom: collect, then sort in the same
// block before anything order-sensitive happens.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ScheduleSorted drives the event-carrying calls from the sorted slice,
// not the map, so registration order is deterministic.
func ScheduleSorted(e *simnet.Engine, m map[string]func()) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.After(time.Second, m[k])
	}
}

// Sum only aggregates with a commutative operation; order cannot leak.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Any reports whether some value is negative: the answer is the same
// whichever entry is visited first, and the return carries no key.
func Any(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return true
		}
	}
	return false
}

// Copy writes each entry under its own key, and x and y are declared
// inside the loop: no store can carry one iteration's key or value past it.
func Copy(m map[string]int) map[string]int {
	m2 := make(map[string]int, len(m))
	for k, v := range m {
		x := v
		var y int
		y = x + v
		m2[k] = y
	}
	return m2
}

// SortedEscape collects keys with the sorted-keys append, then returns the
// smallest: the escape happens after the sort.
func SortedEscape(m map[string]int) string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}

// Newest keeps the largest value: an extremum is the same in any order.
func Newest(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// Getters returns from closures built per entry, not from the loop.
func Getters(m map[string]int) int {
	total := 0
	for _, v := range m {
		get := func() int { return v }
		total += get()
	}
	return total
}
