package experiment

// Critical-path hooks: adapters that turn a traced benchrunner run into
// the deterministic attribution report from internal/obs/critpath, so
// `benchrunner -exp fig7f -critpath out.txt` emits the per-structure
// table the paper's bottleneck argument rests on.
//
// Every engine an experiment obtains from its Env becomes one critpath
// source, labeled by experiment ID, index across the run, and seed — a
// pure function of the registry order and each driver's creation order,
// hence byte-stable at any -parallel. Under -shards each occupation probe
// builds its own multi-cell cluster, so the flat engine list concatenates
// cells from many groups; per-engine sources keep the report well-defined
// there: a span whose parent ran on another cell surfaces as its own
// root, still named, so per-kind attribution and structure grouping
// survive. The fully stitched cross-cell DAG is exercised by `chaossoak
// -shards -critpath`, which runs exactly one cluster per seed and flattens
// it with critpath.FromCells.

import (
	"fmt"

	"eslurm/internal/obs/critpath"
	"eslurm/internal/simnet"
)

// A TracedEngine pairs an engine with the experiment that built it.
type TracedEngine struct {
	Exp string
	E   *simnet.Engine
}

// ObservedEngines flattens RunObserved results into one engine list:
// results in the order given (registry order), each experiment's engines
// in creation order. An engine's index in the list is its pid in the
// Chrome trace and its number in every label.
func ObservedEngines(results []Result) []TracedEngine {
	var all []TracedEngine
	for _, r := range results {
		for _, e := range r.Engines {
			all = append(all, TracedEngine{Exp: r.Spec.ID, E: e})
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
		tr := te.E.Tracer()
		if tr.Len() == 0 {
			continue
		}
		srcs = append(srcs, critpath.Source{
			Label: fmt.Sprintf("%s engine %d seed %d", te.Exp, i, te.E.Seed()),
			Group: te.Exp,
			Spans: tr.Spans(),
		})
	}
	return srcs
}

// CritpathReport analyzes traced engines into one attribution report.
// Same flags → byte-identical report.
func CritpathReport(engines []TracedEngine, topK int) *critpath.Report {
	return critpath.Analyze(CritpathSources(engines), critpath.Options{TopK: topK})
}
