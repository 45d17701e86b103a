// Package hostprof writes pprof profiles of a CLI run in host time: where
// the process spends its CPU and what it allocates, the questions the
// simulated-time spans and metrics of package obs cannot answer. Both
// CLIs that run simulations at scale (benchrunner, chaossoak) take
// -cpuprofile and -memprofile through it. Profiling only samples the
// process; it draws no RNG and schedules no events, so it leaves the
// determinism contract (same seed ⇒ same trace) and every report byte
// untouched.
package hostprof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts the CPU profile and returns the function that stops it and
// writes the allocation profile; an empty path skips that profile. Both
// files are created up front, so a bad path fails before the run.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // the allocs profile is as of the last completed collection
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}
