//eslurmlint:testpath eslurm/internal/experiment

// Package walltime_runner pretends (via the testpath directive) to be the
// experiment suite runner, which times each run through hostprof to fill
// Result.Wall. That call is allowed; reading the clock itself is not.
package walltime_runner

import (
	"time"

	"eslurm/internal/hostprof"
)

func Measure(fn func()) time.Duration {
	stop := hostprof.Stopwatch()
	fn()
	return stop()
}

func Direct(fn func()) time.Duration {
	t0 := time.Now() // want "time.Now reads the host clock"
	fn()
	return time.Since(t0) // want "time.Since"
}
