package simnet_test

// Kernel microbenchmarks. Each drives a fixed-seed engine, so the work
// measured is the same run to run and only host timing varies. CI
// smoke-runs them (`-bench=BenchmarkEngine -benchtime=1x`) so they cannot
// bit-rot; their allocation counts are gated exactly by
// TestAllocsScheduleFire, and wall-clock belongs to bench/.

import (
	"testing"
	"time"

	"eslurm/internal/simnet"
)

// BenchmarkEngineStep is the steady-state schedule→fire round trip against
// a 1K-event backlog — the regime every experiment driver puts the kernel
// in.
func BenchmarkEngineStep(b *testing.B) {
	e := simnet.NewEngine(1)
	nop := func() {}
	const backlog = 1024
	for i := 0; i < backlog; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(backlog*time.Millisecond, nop)
		e.Step()
	}
}

// BenchmarkEngineScheduleCancel is the schedule+cancel churn that
// Ticker-heavy components (monitors, heartbeats, retry timers) generate.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := simnet.NewEngine(2)
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doomed := e.After(time.Millisecond, nop)
		e.After(2*time.Millisecond, nop)
		doomed.Cancel()
		e.Step()
	}
}

// BenchmarkEngineRand is the per-call cost of looking up a labelled RNG
// stream.
func BenchmarkEngineRand(b *testing.B) {
	e := simnet.NewEngine(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Rand("bench/label")
	}
}
