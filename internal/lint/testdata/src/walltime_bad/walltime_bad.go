// Package walltime_bad exercises every banned host clock and environment
// call. Its real path sits under internal/, so the walltime rule applies.
package walltime_bad

import (
	"os"
	"time"

	"eslurm/internal/hostprof"
	"eslurm/internal/hostprof/profile"
)

func Bad() time.Duration {
	t0 := time.Now()             // want "time.Now reads the host clock"
	time.Sleep(time.Millisecond) // want "time.Sleep"
	<-time.After(time.Second)    // want "time.After"
	_ = time.Until(t0)           // want "time.Until"
	return time.Since(t0)        // want "time.Since"
}

// Waits are banned too: each fires on the host clock, not the engine's.
func Waits(fn func()) {
	<-time.Tick(time.Second)               // want "time.Tick"
	time.NewTimer(time.Second).Stop()      // want "time.NewTimer"
	time.NewTicker(time.Second).Stop()     // want "time.NewTicker"
	time.AfterFunc(time.Second, fn).Stop() // want "time.AfterFunc"
}

// Environ reads the process environment: the same seed would mean
// different runs on different hosts.
func Environ() int {
	_, ok := os.LookupEnv("ESLURM_MODE") // want "os.LookupEnv reads the host clock or environment"
	if ok {
		return len(os.Environ()) // want "os.Environ"
	}
	return 0
}

// Engine mimics the simnet scheduling surface.
type Engine struct{}

func (e *Engine) After(d time.Duration, fn func())                                       {}
func (e *Engine) Schedule(at time.Duration, fn func())                                   {}
func (e *Engine) AfterTo(d time.Duration, h interface{ HandleEvent(int32) }, kind int32) {}
func (e *Engine) Rand(label string) int                                                  { return 0 }

type sleeper struct{}

func (sleeper) HandleEvent(int32) {}

// wallDelay returns a host-clock-derived duration. The read is the
// finding: no helper can carry the value on to the event heap, so
// ScheduleWall and HandlerWall need no finding of their own.
func wallDelay() time.Duration {
	return time.Duration(time.Now().UnixNano() % 1000) // want "time.Now"
}

func ScheduleWall(e *Engine) { e.After(wallDelay(), func() {}) }

func HandlerWall(e *Engine) { e.AfterTo(wallDelay(), sleeper{}, 0) }

// scheduleAt forwards its parameter to the heap.
func scheduleAt(e *Engine, d time.Duration) { e.Schedule(d, func() {}) }

// ScheduleEnv threads an environment-derived delay through a helper: it is
// caught where it enters, not where it lands.
func ScheduleEnv(e *Engine) {
	v := len(os.Getenv("ESLURM_DELAY")) // want "os.Getenv"
	scheduleAt(e, time.Duration(v))
}

// StreamFromEnv selects an RNG stream with an environment-derived label.
func StreamFromEnv(e *Engine) int {
	return e.Rand(os.Getenv("ESLURM_STREAM")) // want "os.Getenv"
}

// Stopwatch reaches the host clock through hostprof, where host time
// enters the tree under internal/: only the host side and the experiment
// suite runner may call it or its profile subpackage.
func Stopwatch(fn func()) time.Duration {
	stop := hostprof.Stopwatch() // want "hostprof.Stopwatch is host time"
	fn()
	return stop()
}

func Profile() (func() error, error) {
	return profile.Start("", "") // want "profile.Start is host time"
}
