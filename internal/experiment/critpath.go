package experiment

// Critical-path hooks: adapters that turn a traced benchrunner run into
// the deterministic attribution report from internal/obs/critpath, so
// `benchrunner -exp fig7f -critpath out.txt` emits the per-structure
// table the paper's bottleneck argument rests on.
//
// The record of every engine an experiment obtains from its Env becomes
// one critpath source, labeled by experiment ID, index across the run, and seed — a
// pure function of the registry order and each driver's creation order,
// hence byte-stable at any -parallel.

import (
	"fmt"

	"eslurm/internal/obs/critpath"
)

// A TracedEngine pairs an engine's record with the experiment that built
// the engine.
type TracedEngine struct {
	Exp string
	EngineRecord
}

// ObservedEngines flattens results into one record list: results in the
// order given (registry order), each experiment's records in creation
// order. An engine's index in the list is its pid in the Chrome trace and
// its number in every label.
func ObservedEngines(results []Result) []TracedEngine {
	var all []TracedEngine
	for _, r := range results {
		for _, rec := range r.Engines {
			all = append(all, TracedEngine{Exp: r.Spec.ID, EngineRecord: rec})
		}
	}
	return all
}

// CritpathSources converts traced engines into critpath sources, one per
// engine that recorded at least one span. Group is the experiment ID, so
// the report aggregates per experiment × root kind (× structure where
// the broadcast span carries one).
func CritpathSources(engines []TracedEngine) []critpath.Source {
	var srcs []critpath.Source
	for i, te := range engines {
		if te.Tracer.Len() == 0 {
			continue
		}
		srcs = append(srcs, critpath.Source{
			Label: fmt.Sprintf("%s engine %d seed %d", te.Exp, i, te.Seed),
			Group: te.Exp,
			Spans: te.Tracer.Spans(),
		})
	}
	return srcs
}

// CritpathReport analyzes traced engines into one attribution report.
// Same flags → byte-identical report.
func CritpathReport(engines []TracedEngine, topK int) *critpath.Report {
	return critpath.Analyze(CritpathSources(engines), critpath.Options{TopK: topK})
}
