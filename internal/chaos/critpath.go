package chaos

// Critical-path assembly: adapters that turn a soak's span recordings
// into critpath sources, so the chaossoak CLI and the determinism tests
// aggregate identically. Grouping is per-seed-label under one campaign
// group; the derived report is a pure function of the recordings, hence
// byte-identical for the same seed.

import (
	"fmt"

	"eslurm/internal/obs/critpath"
)

// CritpathReport analyzes the soak's traced seeds (Config.Trace must
// have been set) into one critical-path report.
func (r *Report) CritpathReport(topK int) *critpath.Report {
	var srcs []critpath.Source
	for _, s := range r.Seeds {
		if s.Trace == nil {
			continue
		}
		srcs = append(srcs, critpath.Source{
			Label: fmt.Sprintf("seed %d", s.Seed),
			Group: "chaossoak",
			Spans: s.Trace.Spans(),
		})
	}
	return critpath.Analyze(srcs, critpath.Options{TopK: topK})
}
