package critpath

// The observability flags. benchrunner and chaossoak each reduce a run to
// one Recording per engine, and WriteFlags turns that list into what
// -trace, -critpath and -metrics asked for, with one status line per
// file: the two CLIs write the three outputs, and report them, one way.

import (
	"fmt"
	"io"

	"eslurm/internal/obs"
)

// A Recording is one engine's recordings as the observability flags read
// them: its Chrome trace process (pid, name and tracer; the tracer is nil
// unless spans were armed), the label and group its spans carry into a
// critical-path report, and its metrics registry. Label also heads the
// engine's -metrics dump.
type Recording struct {
	obs.Process
	Label   string
	Group   string
	Metrics *obs.Registry
}

// AnalyzeRecordings analyzes every recording that holds at least one span
// into one report, in list order. Same recordings → byte-identical report.
func AnalyzeRecordings(recs []Recording, topK int) *Report {
	var srcs []Source
	for _, r := range recs {
		if r.T.Len() == 0 {
			continue
		}
		srcs = append(srcs, Source{Label: r.Label, Group: r.Group, Spans: r.T.Spans()})
	}
	return Analyze(srcs, Options{TopK: topK})
}

// WriteFlags writes what the observability flags asked for from recs, in
// list order; each part is skipped when its flag is unset. tracePath gets
// the Chrome trace (one process per recording) and critPath the
// critical-path report (five slowest paths); each file written adds a
// status line to status. metrics dumps every recording's registry to
// stdout under a "metrics <label>:" header.
func WriteFlags(stdout, status io.Writer, recs []Recording, tracePath, critPath string, metrics bool) error {
	if tracePath != "" {
		procs := make([]obs.Process, len(recs))
		for i, r := range recs {
			procs[i] = r.Process
		}
		if err := obs.WriteFile(tracePath, func(w io.Writer) error { return obs.WriteChrome(w, procs...) }); err != nil {
			return err
		}
		fmt.Fprintf(status, "-- trace: %d engine(s) -> %s\n", len(procs), tracePath)
	}
	if critPath != "" {
		rep := AnalyzeRecordings(recs, 5)
		if err := obs.WriteFile(critPath, rep.WriteText); err != nil {
			return err
		}
		fmt.Fprintf(status, "-- critpath: %d source(s) -> %s\n", rep.Sources, critPath)
	}
	if metrics {
		for _, r := range recs {
			fmt.Fprintf(stdout, "metrics %s:\n", r.Label)
			if err := r.Metrics.WriteText(stdout); err != nil {
				return err
			}
		}
	}
	return nil
}
