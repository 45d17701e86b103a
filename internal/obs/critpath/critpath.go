// Package critpath answers the question the span layer only records:
// which hop made this broadcast slow? The paper's scaling argument is
// that broadcast latency at scale is dominated by a handful of hops —
// rebuilds, retries, slow links — so the reproduction needs per-component
// latency attribution, not just end-to-end numbers. This package
// reconstructs the span DAG of a traced run (parent links plus the
// cross-component hand-off edges comm/fptree/master emit), computes the
// critical path of every root span — the backward last-finisher chain
// through broadcast → task → plan/build → send/retry/adopt that
// determined the root's end time — and aggregates the attribution per
// group (campaign × root kind × structure × scale) into a byte-stable
// report. Diff aligns two reports and says which span kinds gained or
// lost simulated time — the regression-hunting primitive the perf gate
// cannot provide.
//
// Determinism contract: analysis is a pure function of the input spans.
// Every walk is over id- or explicitly-sorted orders, no map iteration
// reaches the output, and no clocks or RNG streams are read — the same
// recording always yields byte-identical report text and digest.
package critpath

import (
	"sort"
	"time"

	"eslurm/internal/mapkeys"
	"eslurm/internal/obs"
)

// Source is one traced run contributing roots to an analysis.
type Source struct {
	// Label identifies the trace in path listings ("seed 3",
	// "fig7f engine 0 seed 42").
	Label string
	// Group is the aggregation prefix shared by comparable traces (the
	// campaign or experiment ID); the derived root/structure/targets
	// components are appended per root span.
	Group string
	// Spans is the recording, Tracer.Spans() order: the span at index i
	// has id i+1, and Parent values index into the same slice.
	Spans []obs.Span
}

// Options tunes an analysis. The zero value is usable.
type Options struct {
	// TopK bounds the slowest-critical-paths listing (default 5).
	TopK int
}

func attrValue(attrs []obs.Attr, key string) (string, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// node is the analysis view of one span.
type node struct {
	name           string
	start, end     time.Duration
	ended, instant bool
	parent         int // 0 = root, else 1-based id into the same slice
	children       []int32
	root           int  // 1-based id of this span's root ancestor
	hasRetry       bool // carries at least one comm.retry instant child
	rebuild        bool // fptree.plan/build that is not its root's first
}

// analysis is the per-source working state.
type analysis struct {
	nodes []node
	// critKids caches, per span, its ended non-instant children sorted by
	// (End desc, Start desc, id desc) — the tie-break rule of the
	// backward walk, documented in DESIGN.md §8.
	critKids map[int][]int32
	// self is per-root scratch: the self time attributed to each span,
	// indexed by span id; touched lists the ids with a nonzero entry, in
	// the order they were first attributed.
	self    []time.Duration
	touched []int
}

// Analyze computes the critical-path report over the given sources.
func Analyze(sources []Source, opt Options) *Report {
	if opt.TopK <= 0 {
		opt.TopK = 5
	}
	rep := &Report{Sources: len(sources), TopK: opt.TopK}
	groups := make(map[string]*Group)
	var paths []Path

	for _, src := range sources {
		a := build(src.Spans, rep)
		// Per-root bookkeeping computed in one ascending pass each:
		// retry/adopt counts, structure discovery, rebuild marking.
		retries := make(map[int]int)
		adopts := make(map[int]int)
		structOf := make(map[int]string)
		for i := range a.nodes {
			n := &a.nodes[i]
			switch n.name {
			case "comm.retry":
				retries[n.root]++
			case "comm.adopt":
				adopts[n.root]++
			case "comm.broadcast":
				if _, seen := structOf[n.root]; !seen {
					if s, ok := attrValue(src.Spans[i].Attrs, "structure"); ok {
						structOf[n.root] = s
					}
				}
			}
		}

		for i := range a.nodes {
			n := &a.nodes[i]
			if n.parent != 0 || n.instant {
				continue
			}
			if !n.ended {
				rep.Open++
				continue
			}
			id := i + 1
			key := groupKey(src.Group, n.name, structOf[id], src.Spans[i].Attrs)
			g, ok := groups[key]
			if !ok {
				g = &Group{Key: key, kinds: make(map[string]*KindAttr)}
				groups[key] = g
			}

			for _, sid := range a.touched {
				a.self[sid] = 0
			}
			a.touched = a.touched[:0]
			spine := []int{id}
			a.attribute(id, n.start, n.end, &spine)

			dur := n.end - n.start
			g.Roots++
			g.Time += dur
			if dur > g.Max {
				g.Max = dur
			}
			g.Retries += retries[id]
			g.Adopts += adopts[id]
			for _, sid := range a.touched {
				d := a.self[sid]
				sn := &a.nodes[sid-1]
				k, ok := g.kinds[sn.name]
				if !ok {
					k = &KindAttr{Name: sn.name}
					g.kinds[sn.name] = k
				}
				k.Time += d
				k.Segs++
				if sn.hasRetry {
					g.RetryTime += d
				}
				if sn.rebuild {
					g.RebuildTime += d
				}
			}

			chain := make([]Hop, 0, len(spine))
			for _, sid := range spine {
				chain = append(chain, Hop{Name: a.nodes[sid-1].name, Self: a.self[sid]})
			}
			paths = append(paths, Path{
				Dur: dur, Label: src.Label, Group: key, Chain: chain,
				start: n.start, order: id,
			})
		}
	}

	for _, k := range mapkeys.Sorted(groups) {
		g := groups[k]
		for _, name := range mapkeys.Sorted(g.kinds) {
			g.Kinds = append(g.Kinds, *g.kinds[name])
		}
		g.kinds = nil
		rep.Groups = append(rep.Groups, *g)
		rep.Roots += g.Roots
		rep.Total += g.Time
		rep.RetryTime += g.RetryTime
		rep.RebuildTime += g.RebuildTime
		rep.Retries += g.Retries
		rep.Adopts += g.Adopts
	}

	sort.Slice(paths, func(i, j int) bool {
		a, b := paths[i], paths[j]
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.order < b.order
	})
	if len(paths) > opt.TopK {
		paths = paths[:opt.TopK]
	}
	rep.Paths = paths
	return rep
}

// groupKey derives a root span's aggregation key: the source group plus
// the root kind, plus structure and scale when the subtree carries them.
func groupKey(prefix, rootName, structure string, rootAttrs []obs.Attr) string {
	key := prefix + " root=" + rootName
	if structure != "" {
		key += " structure=" + structure
	}
	if tg, ok := attrValue(rootAttrs, "targets"); ok {
		key += " targets=" + tg
	}
	return key
}

// build constructs the analysis DAG for one source, folding span counts
// and orphan/instant tallies into rep.
func build(spans []obs.Span, rep *Report) *analysis {
	a := &analysis{
		nodes:    make([]node, len(spans)),
		critKids: make(map[int][]int32),
		self:     make([]time.Duration, len(spans)+1),
	}
	rep.Spans += len(spans)
	seenPlan := make(map[int]bool)
	seenBuild := make(map[int]bool)
	for i, sp := range spans {
		id := i + 1
		parent := int(sp.Parent)
		if parent < 0 || parent >= id {
			// An orphan reference: the parent id never resolves inside
			// this recording (a stale or cross-tracer id). The span is
			// analyzed as a root.
			if parent != 0 {
				rep.Orphans++
			}
			parent = 0
		}
		n := &a.nodes[i]
		n.name, n.parent = sp.Name, parent
		n.start, n.end = sp.Start, sp.End
		n.ended, n.instant = sp.Ended, sp.Instant
		if sp.Instant {
			rep.Instants++
			n.end = sp.Start
		}
		if parent == 0 {
			n.root = id
		} else {
			n.root = a.nodes[parent-1].root
			a.nodes[parent-1].children = append(a.nodes[parent-1].children, int32(id))
			if sp.Instant && sp.Name == "comm.retry" {
				a.nodes[parent-1].hasRetry = true
			}
		}
		// Rebuild rule: the first fptree.plan/fptree.build in a root's
		// subtree is the broadcast's own construction; every later one
		// exists because a reallocation or adoption forced a re-plan.
		switch sp.Name {
		case "fptree.plan":
			if seenPlan[n.root] {
				n.rebuild = true
			}
			seenPlan[n.root] = true
		case "fptree.build":
			if seenBuild[n.root] {
				n.rebuild = true
			}
			seenBuild[n.root] = true
		}
	}
	return a
}

// kids returns id's ended, non-instant children sorted by the backward
// walk's order: End descending, then Start descending, then id
// descending (the latest-finishing, most-immediate, latest-created child
// wins ties).
func (a *analysis) kids(id int) []int32 {
	if ks, ok := a.critKids[id]; ok {
		return ks
	}
	var ks []int32
	for _, c := range a.nodes[id-1].children {
		n := &a.nodes[c-1]
		if n.ended && !n.instant {
			ks = append(ks, c)
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		x, y := &a.nodes[ks[i]-1], &a.nodes[ks[j]-1]
		if x.end != y.end {
			return x.end > y.end
		}
		if x.start != y.start {
			return x.start > y.start
		}
		return ks[i] > ks[j]
	})
	a.critKids[id] = ks
	return ks
}

// attribute partitions [from, to] of span id between the span itself and
// its critical descendants: walking backward from `to`, the latest-
// finishing child not past the frontier owns the interval up to its end,
// recursively; the gaps belong to the span. The first child descended
// into from a spine node extends the spine — the chain that determined
// the root's end time.
func (a *analysis) attribute(id int, from, to time.Duration, spine *[]int) {
	t := to
	onSpine := spine != nil
	for _, c := range a.kids(id) {
		n := &a.nodes[c-1]
		if n.end <= from {
			break // sorted by end desc: nothing later can contribute
		}
		if n.end > t {
			continue // finished after the frontier: not a last finisher
		}
		a.addSelf(id, t-n.end)
		cFrom := n.start
		if cFrom < from {
			cFrom = from
		}
		if onSpine {
			*spine = append(*spine, int(c))
			a.attribute(int(c), cFrom, n.end, spine)
			onSpine = false
		} else {
			a.attribute(int(c), cFrom, n.end, nil)
		}
		t = cFrom
		if t <= from {
			return
		}
	}
	a.addSelf(id, t-from)
}

func (a *analysis) addSelf(id int, d time.Duration) {
	if d > 0 {
		if a.self[id] == 0 {
			a.touched = append(a.touched, id)
		}
		a.self[id] += d
	}
}
