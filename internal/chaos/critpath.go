package chaos

// Observability assembly: a soak's seeds as the records the -trace,
// -critpath and -metrics flags read (critpath.WriteFlags), so the
// chaossoak CLI and the determinism tests see the same labels. Each
// record is a pure function of its seed's recordings, hence
// byte-identical for the same seed.

import (
	"fmt"

	"eslurm/internal/obs"
	"eslurm/internal/obs/critpath"
)

// Recordings returns one record per seed, in report order: Chrome pid =
// seed, process "chaossoak seed N", critical-path label "seed N" under
// the one group "chaossoak". The tracers are nil unless Config.Trace was
// set.
func (r *Report) Recordings() []critpath.Recording {
	recs := make([]critpath.Recording, len(r.Seeds))
	for i, s := range r.Seeds {
		recs[i] = critpath.Recording{
			Process: obs.Process{PID: int(s.Seed), Name: fmt.Sprintf("chaossoak seed %d", s.Seed), T: s.Trace},
			Label:   fmt.Sprintf("seed %d", s.Seed),
			Group:   "chaossoak",
			Metrics: s.Metrics,
		}
	}
	return recs
}

// CritpathReport analyzes the soak's traced seeds (Config.Trace must
// have been set) into one critical-path report, as -critpath does
// through Recordings. The wrapper stays because the benchmark module
// times it by name.
func (r *Report) CritpathReport(topK int) *critpath.Report {
	return critpath.AnalyzeRecordings(r.Recordings(), topK)
}
