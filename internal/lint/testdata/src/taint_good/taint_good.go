//eslurmlint:testpath eslurm/internal/taint_good

// Package taint_good holds the compliant mirror images of taint_bad:
// seeded streams, the sorted-keys idiom, and sources that never reach a
// sink. None of these may fire.
package taint_good

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Engine mimics the simnet scheduling surface.
type Engine struct{}

func (e *Engine) Schedule(at time.Duration, fn func()) {}
func (e *Engine) After(d time.Duration, fn func())     {}

// seededDelay draws from a threaded *rand.Rand: methods on a seeded
// stream are the sanctioned pattern, not a source, even though they live
// in math/rand.
func seededDelay(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Int63n(1000))
}

func ScheduleSeeded(e *Engine, rng *rand.Rand) {
	e.After(seededDelay(rng), func() {})
}

// sortedKeys collects in map order but sorts with a total order before
// returning: the sorted-keys idiom cleanses map-order taint, including
// across the function boundary.
func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func ScheduleSorted(e *Engine, m map[int]bool) {
	for _, k := range sortedKeys(m) {
		e.Schedule(time.Duration(k), func() {})
	}
}

// LogWall reads the wall clock but only prints it: a source with no path
// to a sink stays silent (walltime owns this site in internal/ scopes;
// taint_good masquerades as internal too, but only taint runs here).
func LogWall() {
	fmt.Println(time.Now())
}

// AfterTo mimics the handler form of After.
func (e *Engine) AfterTo(d time.Duration, h interface{ HandleEvent(int32) }, kind int32) {}

type sleeper struct{}

func (sleeper) HandleEvent(int32) {}

// HandlerSeeded schedules a handler with a seeded delay: the handler form
// is a sink only for tainted arguments.
func HandlerSeeded(e *Engine, rng *rand.Rand) {
	e.AfterTo(seededDelay(rng), sleeper{}, 0)
}
