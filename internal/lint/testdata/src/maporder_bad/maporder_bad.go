// Package maporder_bad iterates maps with order-sensitive side effects
// and never sorts, so every loop below must be flagged.
package maporder_bad

import (
	"time"

	"eslurm/internal/simnet"
)

func UnsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m { // want "appends to out"
		out = append(out, k)
	}
	return out
}

func Emit(m map[string]int, ch chan int) {
	for _, v := range m { // want "sends on a channel"
		ch <- v
	}
}

func ScheduleAll(e *simnet.Engine, m map[string]func()) {
	for _, fn := range m { // want "calls simnet.After"
		e.After(time.Second, fn)
	}
}

// Closures registered from a map loop inherit its random order: the After
// call sits inside a nested literal but is still an effect of this loop.
func ScheduleNested(e *simnet.Engine, m map[string]func()) func() {
	return func() {
		for _, fn := range m { // want "calls simnet.After"
			e.After(time.Second, fn)
		}
	}
}

// FirstKey lets the range key escape through a return value: which key
// comes first is up to the per-run order.
func FirstKey(m map[int]bool) int {
	for k := range m { // want "returns the range key or value"
		return k
	}
	return 0
}

// LastKey keeps whichever key the loop happens to visit last.
func LastKey(m map[int]bool) int {
	last := -1
	for k := range m { // want "stores the range key or value into last"
		last = k
	}
	return last
}

type picker struct{ pick func() }

// Pick stores a value into a field of a variable declared before the loop.
func (s *picker) Pick(m map[string]func()) {
	for _, v := range m { // want "stores the range key or value into s.pick"
		s.pick = v
	}
}
