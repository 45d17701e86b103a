// Package hostprof is where host time enters the tree under internal/:
// this package times a run on the host clock (Stopwatch), and its
// subpackage profile writes pprof profiles of a CLI run (where the
// process spends its CPU and what it allocates, the questions the
// simulated-time spans and metrics of package obs cannot answer). The
// experiment suite runner fills Result.Wall from a Stopwatch; both CLIs
// that run simulations at scale (benchrunner, chaossoak) take
// -cpuprofile and -memprofile through profile.Start. Neither draws RNG
// or schedules events, so they leave the determinism contract (same seed
// ⇒ same trace) and every report byte untouched. The lint ban table
// (bannedcall) lets only host-side packages and the suite runner call them.
//
// The profiler lives in its own package so that importing the stopwatch
// does not link runtime/pprof (and its compression code) into every
// binary that runs experiments.
package hostprof

import "time"

// Stopwatch starts a host-clock timer and returns the function that reads
// the time elapsed since the start.
func Stopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
