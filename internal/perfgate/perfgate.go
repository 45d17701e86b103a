// Package perfgate compares two benchrunner -json performance records —
// a committed baseline (BENCH_<preset>.json) and a fresh run — and
// reports regressions beyond a noise tolerance. It is the CI
// perf-trajectory gate: kernel microbenchmarks and suite throughput may
// drift within tolerance run to run, but a real slowdown (or any new
// per-op allocation, which is machine-independent) fails the build
// instead of silently eroding the numbers the README quotes.
//
// Timing comparisons are only meaningful between like machines: when the
// baseline and the fresh run disagree on num_cpu, GOOS, or GOARCH, the
// gate demotes every timing check to a note and judges only what is
// machine-independent: the allocation counts, which the Go allocator
// makes deterministic, and each experiment's event count, which the
// simulator does.
package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Record mirrors the benchrunner -json output (perfRecord there); only
// the fields the gate judges are declared. Unknown fields are ignored so
// the gate tolerates benchrunner growing new metadata.
type Record struct {
	Preset       string       `json:"preset"`
	Parallel     int          `json:"parallel"`
	Shards       int          `json:"shards"`
	GOOS         string       `json:"goos"`
	GOARCH       string       `json:"goarch"`
	NumCPU       int          `json:"num_cpu"`
	SuiteWallMS  float64      `json:"suite_wall_ms"`
	TotalEvents  uint64       `json:"total_events"`
	EventsPerSec float64      `json:"events_per_sec"`
	Experiments  []Experiment `json:"experiments"`
	Kernel       []Microbench `json:"kernel_microbench"`
}

// Experiment is one suite entry in a Record.
type Experiment struct {
	ID           string  `json:"id"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	Shards       int     `json:"shards"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Microbench is one kernel microbenchmark entry in a Record.
type Microbench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Tolerance sets how much slower the fresh run may be before a timing
// counts as a regression, as a fraction of the baseline (0.25 = 25%
// slower allowed). Allocation counts get no tolerance: they are
// deterministic per op, so any increase is a real code change. Event
// counts get none either, in both directions.
type Tolerance struct {
	// Suite bounds the whole-suite events/sec drop.
	Suite float64
	// Experiment bounds each experiment's events/sec drop. Experiments
	// with zero events in both records do not run on the simulation
	// kernel (table8 and fig11b replay a trace through estimate/mlkit);
	// the same bound gates their wall_ms growth instead, from
	// minGatedWallMS up.
	Experiment float64
	// Microbench bounds each kernel microbenchmark's ns/op growth.
	// Microbenchmarks are the noisiest of the three on shared CI
	// runners, so this is usually the loosest bound.
	Microbench float64
}

// The default tolerances are tuned for a shared single-core CI runner,
// where run-to-run wall-clock noise of 15-20% is routine. Anything
// beyond these bounds has, in practice, always been a real regression.
// Constants, not a package-level Tolerance var, so the defaults are
// immutable shared state.
const (
	DefaultSuiteTol      = 0.25
	DefaultExperimentTol = 0.40
	DefaultMicrobenchTol = 0.50
)

// minGatedWallMS is the shortest baseline wall time the gate will judge on
// its own. Below it a 40% swing is noise, not a code change: table1 runs
// in tens of microseconds, and fig5 (~100 ms) is timed while a neighbouring
// experiment shares the CPUs under -parallel. The floor sits a factor of
// two from both fig5 and table8 (~520 ms), the smallest experiment this
// check exists for.
const minGatedWallMS = 250

// Finding is one gate result: a regression (Fatal) or an informational
// note (environment mismatch, skipped comparison, new/vanished entries).
type Finding struct {
	Fatal   bool
	Message string
}

func (f Finding) String() string {
	tag := "note"
	if f.Fatal {
		tag = "FAIL"
	}
	return tag + ": " + f.Message
}

// Report is the full outcome of one Compare call.
type Report struct {
	Findings []Finding
}

// Regressions counts fatal findings.
func (r *Report) Regressions() int {
	n := 0
	for _, f := range r.Findings {
		if f.Fatal {
			n++
		}
	}
	return n
}

// String renders every finding one per line, fatal findings first, with
// a one-line verdict at the end.
func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		if f.Fatal {
			fmt.Fprintln(&b, f)
		}
	}
	for _, f := range r.Findings {
		if !f.Fatal {
			fmt.Fprintln(&b, f)
		}
	}
	if n := r.Regressions(); n > 0 {
		fmt.Fprintf(&b, "perfgate: %d regression(s) beyond tolerance\n", n)
	} else {
		fmt.Fprintf(&b, "perfgate: ok (%d finding(s), none fatal)\n", len(r.Findings))
	}
	return b.String()
}

func (r *Report) notef(format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Message: fmt.Sprintf(format, args...)})
}

func (r *Report) failf(format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Fatal: true, Message: fmt.Sprintf(format, args...)})
}

// comparableTimings reports whether wall-clock comparisons between the
// two records mean anything, noting the reason when they do not.
func comparableTimings(r *Report, base, fresh *Record) bool {
	ok := true
	if base.NumCPU != fresh.NumCPU {
		r.notef("num_cpu differs (base %d, fresh %d): timing checks skipped, judging allocations only", base.NumCPU, fresh.NumCPU)
		ok = false
	}
	if base.GOOS != fresh.GOOS || base.GOARCH != fresh.GOARCH {
		r.notef("platform differs (base %s/%s, fresh %s/%s): timing checks skipped, judging allocations only",
			base.GOOS, base.GOARCH, fresh.GOOS, fresh.GOARCH)
		ok = false
	}
	if ok && base.Parallel != fresh.Parallel {
		r.notef("parallel differs (base %d, fresh %d): suite wall-clock comparison is apples-to-oranges; per-experiment and microbench checks still apply", base.Parallel, fresh.Parallel)
	}
	return ok
}

// Compare judges fresh against base. Zero-valued tolerance fields fall
// back to the Default*Tol constants, so Compare(base, fresh,
// Tolerance{}) applies the defaults.
func Compare(base, fresh *Record, tol Tolerance) *Report {
	if tol.Suite == 0 {
		tol.Suite = DefaultSuiteTol
	}
	if tol.Experiment == 0 {
		tol.Experiment = DefaultExperimentTol
	}
	if tol.Microbench == 0 {
		tol.Microbench = DefaultMicrobenchTol
	}

	r := &Report{}
	if base.Preset != fresh.Preset {
		r.notef("preset differs (base %q, fresh %q): comparing anyway, but the baseline should match the fresh preset", base.Preset, fresh.Preset)
	}
	timings := comparableTimings(r, base, fresh)

	if timings {
		compareSuite(r, base, fresh, tol)
	}
	compareExperiments(r, base, fresh, tol, timings)
	compareKernel(r, base, fresh, tol, timings)
	return r
}

func compareSuite(r *Report, base, fresh *Record, tol Tolerance) {
	if base.EventsPerSec <= 0 {
		r.notef("baseline records no suite throughput; suite check skipped")
		return
	}
	floor := base.EventsPerSec * (1 - tol.Suite)
	if fresh.EventsPerSec < floor {
		r.failf("suite throughput %.0f ev/s is %.1f%% below baseline %.0f ev/s (tolerance %.0f%%)",
			fresh.EventsPerSec, drop(base.EventsPerSec, fresh.EventsPerSec), base.EventsPerSec, tol.Suite*100)
	}
}

func compareExperiments(r *Report, base, fresh *Record, tol Tolerance, timings bool) {
	freshByID := make(map[string]Experiment, len(fresh.Experiments))
	for _, e := range fresh.Experiments {
		freshByID[e.ID] = e
	}
	for _, be := range base.Experiments {
		fe, ok := freshByID[be.ID]
		if !ok {
			r.notef("experiment %s present in baseline but missing from fresh run", be.ID)
			continue
		}
		delete(freshByID, be.ID)
		if base.Preset == fresh.Preset && be.Shards == fe.Shards && be.Events != fe.Events {
			// The simulator is deterministic: same preset, same kernel, same
			// events, on any machine. A differing count is a changed model or
			// an engine the runner no longer accounts.
			r.failf("experiment %s executed %d events, baseline %d (same preset and shards: event counts get zero tolerance)",
				be.ID, fe.Events, be.Events)
			continue
		}
		if !timings {
			continue
		}
		if be.Events == 0 && fe.Events == 0 {
			// Not kernel-driven: there is no throughput, so wall time is
			// the only number that can show a slowdown.
			if be.WallMS >= minGatedWallMS && fe.WallMS > be.WallMS*(1+tol.Experiment) {
				r.failf("experiment %s wall time %.0f ms is %.1f%% above baseline %.0f ms (tolerance %.0f%%)",
					be.ID, fe.WallMS, rise(be.WallMS, fe.WallMS), be.WallMS, tol.Experiment*100)
			}
			continue
		}
		if be.Events == 0 || fe.Events == 0 {
			continue // kernel-driven on one side only: nothing comparable
		}
		if be.Shards != fe.Shards {
			r.notef("experiment %s shard count differs (base %d, fresh %d): comparison skipped", be.ID, be.Shards, fe.Shards)
			continue
		}
		floor := be.EventsPerSec * (1 - tol.Experiment)
		if fe.EventsPerSec < floor {
			r.failf("experiment %s throughput %.0f ev/s is %.1f%% below baseline %.0f ev/s (tolerance %.0f%%)",
				be.ID, fe.EventsPerSec, drop(be.EventsPerSec, fe.EventsPerSec), be.EventsPerSec, tol.Experiment*100)
		}
	}
	// Deterministic order for leftovers: walk the fresh slice, not the map.
	for _, fe := range fresh.Experiments {
		if _, leftover := freshByID[fe.ID]; leftover {
			r.notef("experiment %s is new (not in baseline); refresh the baseline to start gating it", fe.ID)
		}
	}
}

func compareKernel(r *Report, base, fresh *Record, tol Tolerance, timings bool) {
	freshByName := make(map[string]Microbench, len(fresh.Kernel))
	for _, m := range fresh.Kernel {
		freshByName[m.Name] = m
	}
	for _, bm := range base.Kernel {
		fm, ok := freshByName[bm.Name]
		if !ok {
			r.failf("kernel microbenchmark %s present in baseline but missing from fresh run", bm.Name)
			continue
		}
		delete(freshByName, bm.Name)
		if fm.AllocsPerOp > bm.AllocsPerOp {
			r.failf("kernel microbenchmark %s allocates %d/op, baseline %d/op (allocations get zero tolerance)",
				bm.Name, fm.AllocsPerOp, bm.AllocsPerOp)
		}
		if timings && bm.NsPerOp > 0 {
			ceil := bm.NsPerOp * (1 + tol.Microbench)
			if fm.NsPerOp > ceil {
				r.failf("kernel microbenchmark %s at %.1f ns/op is %.1f%% above baseline %.1f ns/op (tolerance %.0f%%)",
					bm.Name, fm.NsPerOp, rise(bm.NsPerOp, fm.NsPerOp), bm.NsPerOp, tol.Microbench*100)
			}
		}
	}
	for _, fm := range fresh.Kernel {
		if _, leftover := freshByName[fm.Name]; leftover {
			r.notef("kernel microbenchmark %s is new (not in baseline); refresh the baseline to start gating it", fm.Name)
		}
	}
}

func drop(base, fresh float64) float64 { return (1 - fresh/base) * 100 }
func rise(base, fresh float64) float64 { return (fresh/base - 1) * 100 }

// Load reads a benchrunner -json record from path.
func Load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}
