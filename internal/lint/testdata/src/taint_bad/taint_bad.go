//eslurmlint:testpath eslurm/internal/taint_bad

// Package taint_bad exercises the cross-function nondeterminism taint
// analysis: every chain from a source (wall clock, global rand, env, map
// order) to a scheduling sink must fire, and the finding message must
// carry the full source → intermediate calls → sink path.
package taint_bad

import (
	"math/rand"
	"os"
	"time"
)

// Engine mimics the simnet scheduling surface; taint matches sinks by
// method name and receiver type name.
type Engine struct{}

func (e *Engine) Schedule(at time.Duration, fn func()) {}
func (e *Engine) After(d time.Duration, fn func())     {}
func (e *Engine) RunUntil(deadline time.Duration)      {}
func (e *Engine) Rand(label string) int                { return 0 }

// wallDelay returns a wall-clock-derived duration: the taint enters here
// but only becomes a finding where it meets a sink.
func wallDelay() time.Duration {
	return time.Duration(time.Now().UnixNano() % 1000)
}

// ScheduleWall hands the helper's value to the event heap: the finding
// lands at the sink call, with the wallDelay hop in the chain.
func ScheduleWall(e *Engine) {
	e.After(wallDelay(), func() {}) // want "from time.Now (taint_bad.go:27) reaches Engine.After (taint_bad.go:33) via taint_bad.wallDelay (taint_bad.go:33)"
}

// scheduleAt forwards its parameter to the heap: a sink-reaching
// parameter, summarized so callers are checked.
func scheduleAt(e *Engine, d time.Duration) {
	e.Schedule(d, func() {})
}

// ScheduleEnv threads environment-derived data through scheduleAt; the
// chain crosses the call boundary in the sink direction.
func ScheduleEnv(e *Engine) {
	v := len(os.Getenv("ESLURM_DELAY"))
	scheduleAt(e, time.Duration(v)) // want "from os.Getenv (taint_bad.go:45) reaches Engine.Schedule (taint_bad.go:39) via taint_bad.scheduleAt (taint_bad.go:46)"
}

// firstKey returns an arbitrary map key: map-iteration-order taint
// escaping through a return value.
func firstKey(m map[int]bool) int {
	for k := range m {
		return k
	}
	return 0
}

func ScheduleFirst(e *Engine, m map[int]bool) {
	e.Schedule(time.Duration(firstKey(m)), nil) // want "from map iteration order (taint_bad.go:52) reaches Engine.Schedule (taint_bad.go:59) via taint_bad.firstKey (taint_bad.go:59)"
}

// RunNoisy uses the global generator directly at the sink: a zero-hop
// chain (walltime/detrand would also catch the source; taint reports the
// sink contact).
func RunNoisy(e *Engine) {
	e.RunUntil(time.Duration(rand.Int63())) // want "from rand.Int63 (taint_bad.go:66) reaches Engine.RunUntil (taint_bad.go:66)"
}

// StreamFromEnv selects an RNG stream with a nondeterministic label.
func StreamFromEnv(e *Engine) int {
	return e.Rand(os.Getenv("ESLURM_STREAM")) // want "from os.Getenv (taint_bad.go:71) reaches Engine.Rand (taint_bad.go:71)"
}

// AfterTo mimics the handler form of After (declared down here so the
// line numbers pinned above stay put).
func (e *Engine) AfterTo(d time.Duration, h interface{ HandleEvent(int32) }, kind int32) {}

type sleeper struct{}

func (sleeper) HandleEvent(int32) {}

// HandlerWall reaches the heap through the handler form: a sink like
// After, whatever the payload's shape.
func HandlerWall(e *Engine) {
	e.AfterTo(wallDelay(), sleeper{}, 0) // want "from time.Now (taint_bad.go:27) reaches Engine.AfterTo (taint_bad.go:85) via taint_bad.wallDelay (taint_bad.go:85)"
}

// RunUntilDone mimics the run-to-answer driver; its deadline is a sink
// like RunUntil's.
func (e *Engine) RunUntilDone(deadline time.Duration, done func() bool) bool { return true }

func RunNoisyUntilDone(e *Engine) bool {
	return e.RunUntilDone(time.Duration(rand.Int63()), func() bool { return true }) // want "from rand.Int63 (taint_bad.go:93) reaches Engine.RunUntilDone (taint_bad.go:93)"
}
