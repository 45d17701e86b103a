package obs

// Span and metric taxonomy: the one registry of every span, instant and
// metric name the simulation emits. OBSERVABILITY.md's tables are
// generated from these slices (`benchrunner -spans` prints them) and
// byte-gated by docs_test.go; a source-scan test in this package checks
// the registry against the actual Start/Instant/Counter/Gauge/Histogram
// call sites in internal/, so neither the handbook nor this file can
// drift from the code. Pure data — nothing here touches the simulation,
// so determinism is untouched.

import (
	"fmt"
	"sort"
	"strings"
)

// SpanInfo documents one span or instant name.
type SpanInfo struct {
	Name   string // name as recorded by the tracer
	Kind   string // "span" (has duration) or "instant" (point event)
	Pkg    string // package that emits it
	Parent string // what it nests under ("root" = top-level)
	When   string // when it is emitted
}

// SpanTaxonomy returns the span/instant registry, sorted by name.
func SpanTaxonomy() []SpanInfo {
	s := []SpanInfo{
		{"comm.adopt", "instant", "comm", "comm.broadcast", "a relay failed after receiving its sub-tree; the broadcaster re-parents the relay's children and sends past it"},
		{"comm.broadcast", "span", "comm", "root or hand-off (master.task)", "one per broadcast tracker, from first send to resolution; attrs structure/targets, delivered/unreachable on end"},
		{"comm.retry", "instant", "comm", "comm.send", "each retransmission of an unacknowledged message (attempt >= 2)"},
		{"comm.send", "span", "comm", "comm.broadcast or hand-off", "one per point-to-point delivery chain, until ack or the unreachable verdict; attrs from/to, attempts/ok on settle"},
		{"fptree.build", "span", "comm", "comm.broadcast or hand-off", "construction of the fan-out tree over live targets; a repeat build under the same root is a rebuild (critpath's rebuild share)"},
		{"fptree.plan", "span", "comm", "comm.broadcast or hand-off", "planning the fan-out tree shape (width/depth) before building"},
		{"master.broadcast", "span", "core", "root", "a master-driven broadcast: task split, satellite dispatch, resolution; attr targets, delivered on end"},
		{"master.realloc", "instant", "core", "master.task", "a failed satellite's sub-nodelist moved to the next running satellite"},
		{"master.takeover", "instant", "core", "master.broadcast or master.task", "the master does the work itself: satellite pool empty/drained, or the realloc limit was hit"},
		{"master.task", "span", "core", "master.broadcast", "one satellite subtask from dispatch to resolution; attrs sat/nodes/trail"},
		{"predict.alert", "instant", "predict", "root", "monitoring raised an anomaly alert; the node enters the predicted-fault set"},
		{"predict.walltime", "span", "sched", "root", "walltime inference for a job at schedule time; attr walltime_ns"},
		{"reconcile.breaker_open", "instant", "reconcile", "reconcile.round", "a satellite's repeated probe failures tripped the circuit breaker"},
		{"reconcile.drain", "span", "reconcile", "root", "graceful drain of a cordoned satellite; stays open across rounds until the drain resolves"},
		{"reconcile.promote", "instant", "reconcile", "reconcile.round", "a standby satellite promoted toward the spec target"},
		{"reconcile.round", "span", "reconcile", "root", "one control-loop round: observe the pool, diff against spec, act"},
		{"reconcile.spec_update", "instant", "reconcile", "root", "a new declarative spec was applied; convergence state resets"},
		{"reconcile.takeover", "instant", "reconcile", "reconcile.round", "a drained cordoned satellite was replaced by a promotion in the same round"},
		{"satellite.transition", "instant", "satellite", "root", "the satellite state machine moved; attrs sat/from/to"},
		{"sched.crash", "instant", "sched", "root", "the scheduler node crashed: running jobs are killed and downtime begins"},
		{"sched.job", "span", "sched", "root", "a job's residence from start to completion; attrs job/nodes/wait_ns"},
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}

// MetricInfo documents one metrics-registry entry.
type MetricInfo struct {
	Name string // registry name
	Kind string // "counter", "gauge" or "histogram"
	Pkg  string // package that registers it
	What string // what it measures
}

// MetricTaxonomy returns the metric registry, sorted by name.
func MetricTaxonomy() []MetricInfo {
	m := []MetricInfo{
		{"comm.broadcast_elapsed_ns", "histogram", "comm", "broadcast resolution latency (virtual ns)"},
		{"comm.delivered", "counter", "comm", "deliveries acknowledged"},
		{"comm.messages", "counter", "comm", "messages transmitted, retries included"},
		{"comm.outstanding_sends", "gauge", "comm", "delivery chains currently in flight"},
		{"comm.retries", "counter", "comm", "retransmissions after loss or timeout"},
		{"comm.unreachable", "counter", "comm", "targets given up as unreachable"},
		{"estimate.generations", "counter", "estimate", "estimation-model regenerations"},
		{"estimate.model_used", "counter", "estimate", "predictions served by a fitted model (vs. the user estimate)"},
		{"estimate.predictions", "counter", "estimate", "walltime predictions requested"},
		{"estimate.svr_distinct_rows", "counter", "estimate", "bit-distinct rows among estimate.svr_rows, fit by fit: the side of the kernel matrices actually built"},
		{"estimate.svr_maxiter", "counter", "estimate", "per-cluster SVR fits that stopped at MaxIter instead of Tol"},
		{"estimate.svr_rows", "counter", "estimate", "training rows handed to the per-cluster SVR fits (one per interest-window job per generation)"},
		{"estimate.svr_sweeps", "counter", "estimate", "sweeps run by the per-cluster SVR fits: the solver's machine-independent work count"},
		{"master.broadcasts", "counter", "core", "broadcasts initiated by the master"},
		{"master.heartbeat_sweeps", "counter", "core", "heartbeat sweeps over the satellite pool"},
		{"master.pool_drained_fallbacks", "counter", "core", "takeovers forced by a fully drained pool"},
		{"master.reallocations", "counter", "core", "subtasks moved to another satellite after a failure"},
		{"master.subtasks", "counter", "core", "satellite subtasks dispatched"},
		{"master.takeovers", "counter", "core", "broadcasts the master completed itself"},
		{"predict.alerts", "counter", "predict", "anomaly alerts received from monitoring"},
		{"reconcile.actions", "counter", "reconcile", "pool mutations performed by the control loop"},
		{"reconcile.breaker_opens", "counter", "reconcile", "circuit breakers tripped on probing satellites"},
		{"reconcile.converged", "gauge", "reconcile", "1 while observed state matches spec, else 0"},
		{"reconcile.drains", "counter", "reconcile", "graceful drains started"},
		{"reconcile.drains_forced", "counter", "reconcile", "drains force-finished at the deadline"},
		{"reconcile.promotes", "counter", "reconcile", "standby satellites promoted"},
		{"reconcile.rounds", "counter", "reconcile", "control-loop rounds executed"},
		{"reconcile.spec_updates", "counter", "reconcile", "declarative spec replacements applied"},
		{"reconcile.takeovers", "counter", "reconcile", "cordon-replacement takeovers in a round"},
		{"satellite.downs", "counter", "satellite", "transitions into Down"},
		{"satellite.faults", "counter", "satellite", "transitions into Fault"},
		{"satellite.transitions", "counter", "satellite", "state-machine transitions, all kinds"},
		{"sched.completed", "counter", "sched", "jobs that ran to completion"},
		{"sched.crashes", "counter", "sched", "scheduler-node crashes"},
		{"sched.killed", "counter", "sched", "jobs killed at their walltime limit"},
		{"sched.started", "counter", "sched", "jobs started"},
		{"sched.submitted", "counter", "sched", "jobs submitted"},
	}
	sort.Slice(m, func(i, j int) bool { return m[i].Name < m[j].Name })
	return m
}

// SpanTaxonomyMarkdown renders the span table exactly as OBSERVABILITY.md
// embeds it (and as `benchrunner -spans` prints it).
func SpanTaxonomyMarkdown() string {
	var b strings.Builder
	b.WriteString("| name | kind | package | parent | emitted when |\n")
	b.WriteString("|------|------|---------|--------|--------------|\n")
	for _, s := range SpanTaxonomy() {
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s | %s |\n", s.Name, s.Kind, s.Pkg, s.Parent, s.When)
	}
	return b.String()
}

// MetricTaxonomyMarkdown renders the metric table exactly as
// OBSERVABILITY.md embeds it.
func MetricTaxonomyMarkdown() string {
	var b strings.Builder
	b.WriteString("| name | kind | package | measures |\n")
	b.WriteString("|------|------|---------|----------|\n")
	for _, m := range MetricTaxonomy() {
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", m.Name, m.Kind, m.Pkg, m.What)
	}
	return b.String()
}
