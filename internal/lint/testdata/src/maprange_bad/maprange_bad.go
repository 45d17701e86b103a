// Package maprange_bad ranges over maps. Every loop below fires, whatever
// its body: the first group has order-sensitive effects, the second holds
// the forms an order-sensitivity judgement used to let through.
package maprange_bad

import (
	"maps"
	"slices"
	"sort"
	"time"

	"eslurm/internal/simnet"
)

func UnsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m { // want "range over a map"
		out = append(out, k)
	}
	return out
}

func Emit(m map[string]int, ch chan int) {
	for _, v := range m { // want "range over a map"
		ch <- v
	}
}

func ScheduleAll(e *simnet.Engine, m map[string]func()) {
	for _, fn := range m { // want "range over a map"
		e.After(time.Second, fn)
	}
}

// Closures registered from a map loop inherit its random order.
func ScheduleNested(e *simnet.Engine, m map[string]func()) func() {
	return func() {
		for _, fn := range m { // want "range over a map"
			e.After(time.Second, fn)
		}
	}
}

// FirstKey lets the range key escape through a return value.
func FirstKey(m map[int]bool) int {
	for k := range m { // want "range over a map"
		return k
	}
	return 0
}

// LastKey keeps whichever key the loop happens to visit last.
func LastKey(m map[int]bool) int {
	last := -1
	for k := range m { // want "range over a map"
		last = k
	}
	return last
}

type picker struct{ pick func() }

// Pick stores a value into a field of a variable declared before the loop.
func (s *picker) Pick(m map[string]func()) {
	for _, v := range m { // want "range over a map"
		s.pick = v
	}
}

// SortedKeys is the append-then-sort idiom: right, but one helper call
// says it without a map range (maprange_good.SortedKeys).
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want "range over a map"
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ScheduleSorted drives the events from a sorted slice, but builds it
// with a map range of its own.
func ScheduleSorted(e *simnet.Engine, m map[string]func()) {
	keys := make([]string, 0, len(m))
	for k := range m { // want "range over a map"
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.After(time.Second, m[k])
	}
}

// Sum aggregates with a commutative integer operation.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over a map"
		total += v
	}
	return total
}

// Any reports whether some value is negative.
func Any(m map[string]int) bool {
	for _, v := range m { // want "range over a map"
		if v < 0 {
			return true
		}
	}
	return false
}

// Copy writes each entry under its own key.
func Copy(m map[string]int) map[string]int {
	m2 := make(map[string]int, len(m))
	for k, v := range m { // want "range over a map"
		x := v
		var y int
		y = x + v
		m2[k] = y
	}
	return m2
}

// SortedEscape collects keys, sorts them, then returns the smallest.
func SortedEscape(m map[string]int) string {
	var keys []string
	for k := range m { // want "range over a map"
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}

// Newest keeps the largest value.
func Newest(m map[string]int) int {
	best := 0
	for _, v := range m { // want "range over a map"
		if v > best {
			best = v
		}
	}
	return best
}

// NewestKey is the extremum that records its key: with two tied values,
// which key it returns depends on the order.
func NewestKey(m map[string]int) string {
	best, at := 0, ""
	for k, v := range m { // want "range over a map"
		if v > best {
			best, at = v, k
		}
	}
	return at
}

// Getters returns from closures built per entry, not from the loop.
func Getters(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over a map"
		get := func() int { return v }
		total += get()
	}
	return total
}

// Generic ranges over a type parameter whose core type is a map.
func Generic[M ~map[K]V, K comparable, V any](m M) int {
	n := 0
	for range m { // want "range over a map"
		n++
	}
	return n
}

// Iterated collects the keys through the maps iterators, which visit the
// map in the same random order a range does.
func Iterated(m map[string]int) ([]string, []int) {
	keys := slices.Collect(maps.Keys(m))     // want "maps.Keys iterates a map in random order"
	maps.All(m)(func(k string, _ int) bool { // want "maps.All iterates a map in random order"
		keys = append(keys, k)
		return true
	})
	return keys, slices.Collect(maps.Values(m)) // want "maps.Values iterates a map in random order"
}
