package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// passConfig selects one pass over one workload: the untraced pass that
// yields the end-to-end metrics, or the traced pass that yields the
// per-layer ones. A pass runs in a child process of its own, so peak RSS
// and GC state belong to it alone.
type passConfig struct {
	Workload string
	Seed     int64
	// Seconds is how long the untraced pass keeps timing iterations; it
	// always times at least minIters, each over the same fixed input.
	Seconds float64
	Traced  bool
	// TraceOut receives the traced pass's spans as Chrome trace JSON.
	TraceOut string
	// SpawnedAt is when the parent started this process (Unix ns), the
	// origin of setup_s; 0 means now.
	SpawnedAt int64
}

// passResult is what a pass hands back to the parent.
type passResult struct {
	Workload string
	Traced   bool
	// SetupS runs from process start to the first timed iteration: input
	// generation plus the warm-up iteration.
	SetupS float64
	// Samples are the timed iterations' host wall times in seconds.
	Samples []float64
	// PeakRSSMB is the median over the timed iterations of the
	// resident-set peak each reached.
	PeakRSSMB float64
	// Attempted and Failed count ops over every iteration, the warm-up
	// included; Failures keeps the first few reasons.
	Attempted, Failed int
	Failures          []string
	// Layer holds every per-layer metric (traced pass only).
	Layer map[string]float64
}

// tally counts one iteration's ops. Besides its own check, an op fails
// when its output differs from the same op's in ref, the warm-up
// iteration; ref is nil for ops that have no counterpart there.
func (r *passResult) tally(it iteration, ref *iteration) {
	for i, op := range it.Ops {
		r.Attempted++
		reason := op.Err
		if reason == "" && ref != nil && (i >= len(ref.Ops) || ref.Ops[i].ID != op.ID || ref.Ops[i].Out != op.Out) {
			reason = "output differs from the warm-up iteration's"
		}
		if reason == "" {
			continue
		}
		r.Failed++
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, op.ID+": "+reason)
		}
	}
}

// runPass executes the pass in this process.
func runPass(cfg passConfig, sz sizes) (passResult, error) {
	w, ok := lookupWorkload(cfg.Workload)
	if !ok {
		return passResult{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	spawned := time.Now()
	if cfg.SpawnedAt != 0 {
		spawned = time.Unix(0, cfg.SpawnedAt)
	}
	res := passResult{Workload: w.name, Traced: cfg.Traced}

	ref := w.run(sz, cfg.Seed, nil, 0)
	res.tally(ref, nil)
	res.SetupS = time.Since(spawned).Seconds()

	if !cfg.Traced {
		var peaks []float64
		for start := time.Now(); len(res.Samples) < minIters || time.Since(start).Seconds() < cfg.Seconds; {
			ownPeak := resetPeakRSS()
			it := w.run(sz, cfg.Seed, nil, 0)
			if ownPeak {
				peaks = append(peaks, peakRSSMB())
			}
			res.tally(it, &ref)
			res.Samples = append(res.Samples, it.Wall.Seconds())
		}
		// Where the kernel cannot restart the high-water mark it still
		// holds the whole pass's peak.
		res.PeakRSSMB = peakRSSMB()
		if len(peaks) > 0 {
			res.PeakRSSMB = median(peaks)
		}
		return res, nil
	}

	err := tracedPass(w, cfg, sz, &ref, &res)
	return res, err
}

// tracedPass fills res.Layer: one plain iteration, then one with the
// recorder on and the runtime read around it (their difference is the
// tracing overhead), the shard comparison where it applies, and the probe
// suite; the spans go to cfg.TraceOut.
func tracedPass(w workload, cfg passConfig, sz sizes, ref *iteration, res *passResult) error {
	plain := w.run(sz, cfg.Seed, nil, 0)
	res.tally(plain, ref)
	rec := newRecorder()
	rec.setIter(w.name + "/traced")
	root := rec.start("workload."+w.name, 0)
	before := readRuntime()
	it := w.run(sz, cfg.Seed, rec, root)
	after := readRuntime()
	rec.end(root)
	res.tally(it, ref)
	res.Samples = []float64{plain.Wall.Seconds()}

	layer := map[string]float64{}
	for _, m := range perLayer {
		layer[m.name] = 0
	}
	wall := it.Wall.Seconds()
	layer["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	layer["runtime.mallocs"] = float64(after.mallocs - before.mallocs)
	layer["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	layer["runtime.cpu_s"] = after.cpuS - before.cpuS
	if cpu := after.cpuS - before.cpuS; cpu > 0 {
		layer["runtime.gc_cpu_share"] = (after.gcCPUS - before.gcCPUS) / cpu
	}
	layer["simnet.events"] = float64(it.events())
	layer["simnet.events_per_s"] = float64(it.events()) / wall
	for name, d := range it.Parts {
		if _, defined := layer[name]; defined { // fig7f is its workload's only part
			layer[name] = d.Seconds() / wall
		}
	}
	for name, v := range it.Counters {
		layer[name] = v
	}
	layer["bench.trace_overhead_share"] = (wall - plain.Wall.Seconds()) / plain.Wall.Seconds()

	if w.name == "fig7f_sharded" {
		res.tally(shardComparison(sz, rec, it, layer, after.cpuS-before.cpuS), nil)
	}
	probed, ops := runProbes(sz.probe, cfg.Seed, rec)
	for name, v := range probed {
		layer[name] = v
	}
	res.tally(iteration{Ops: ops}, nil)
	res.Layer = layer

	if cfg.TraceOut != "" {
		f, err := os.Create(cfg.TraceOut)
		if err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		if err := rec.writeChrome(f); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
	}
	return nil
}

// shardComparison reruns the sharded workload's input on the serial
// kernel (Shards=0) and on the shard kernel with one worker (Shards=1),
// fills the simnet.shard_* metrics against the traced two-worker
// iteration, and returns one op that fails unless the one- and two-worker
// tables are byte-identical.
func shardComparison(sz sizes, rec *recorder, two iteration, layer map[string]float64, twoCPUS float64) iteration {
	variant := func(shards int) iteration {
		p := sz.fig7f
		p.Shards = shards
		rec.setIter(fmt.Sprintf("fig7f_sharded/shards=%d", shards))
		sp := rec.start(fmt.Sprintf("workload.fig7f_sharded/shards=%d", shards), 0)
		defer rec.end(sp)
		return runRegistry([]string{"fig7f"}, p, rec, sp)
	}
	serial, one := variant(0), variant(1)
	layer["simnet.shard_event_inflation"] = float64(two.events()) / float64(serial.events())
	layer["simnet.shard_speedup_vs_1"] = one.Wall.Seconds() / two.Wall.Seconds()
	layer["simnet.shard_speedup_vs_serial"] = serial.Wall.Seconds() / two.Wall.Seconds()
	layer["simnet.shard_cores_busy"] = twoCPUS / two.Wall.Seconds()

	op := opResult{ID: "fig7f/shards=1-vs-2"}
	switch {
	case one.Ops[0].Err != "":
		op.Err = one.Ops[0].Err
	case serial.Ops[0].Err != "":
		op.Err = serial.Ops[0].Err
	case one.Ops[0].Out != two.Ops[0].Out:
		op.Err = "tables differ between one and two shard workers"
	}
	return iteration{Ops: []opResult{op}}
}

// runtimeStats is a cumulative reading of the Go runtime and the process.
type runtimeStats struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcCPUS, cpuS        float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := runtimeStats{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: ms.NumGC}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUS = gc[0].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s
}

// resetPeakRSS hands freed memory back to the OS and restarts the
// resident-set high-water mark from what is left, so that the next
// iteration's peak is its own and a pass can report the median of several
// peaks, not the one maximum. It reports whether the kernel did so (Linux:
// "5" written to clear_refs).
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is this process's resident-set high-water mark. VmHWM belongs
// to this address space alone; ru_maxrss, the fallback, can also carry the
// parent's peak across exec.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
