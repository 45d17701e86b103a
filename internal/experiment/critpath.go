package experiment

import (
	"fmt"

	"eslurm/internal/obs"
	"eslurm/internal/obs/critpath"
)

// Recordings flattens results into the records the observability flags
// read (critpath.WriteFlags): results in the order given (registry
// order), each experiment's engines in creation order. An engine's index
// i in the list is its Chrome pid, and it is named "<exp> engine i seed
// S" in the trace, in the critical-path report (grouped by experiment ID)
// and in the -metrics dump — a pure function of the registry order and
// each driver's creation order, hence byte-stable at any -parallel.
func Recordings(results []Result) []critpath.Recording {
	var recs []critpath.Recording
	for _, r := range results {
		for _, rec := range r.Engines {
			name := fmt.Sprintf("%s engine %d seed %d", r.Spec.ID, len(recs), rec.Seed)
			recs = append(recs, critpath.Recording{
				Process: obs.Process{PID: len(recs), Name: name, T: rec.Tracer},
				Label:   name,
				Group:   r.Spec.ID,
				Metrics: rec.Metrics,
			})
		}
	}
	return recs
}
