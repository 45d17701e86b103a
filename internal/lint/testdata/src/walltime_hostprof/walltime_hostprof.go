//eslurmlint:testpath eslurm/internal/hostprof

// Package walltime_hostprof pretends (via the testpath directive) to be
// internal/hostprof, the one host-time package under internal/, where
// host clock reads are allowed.
package walltime_hostprof

import "time"

func Stopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
