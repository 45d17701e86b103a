package critpath

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"eslurm/internal/mapkeys"
)

// DiffReport is the comparison of two critical-path reports: per-group,
// per-kind deltas of attributed simulated time, with a movers ranking
// (largest absolute kind-level shift first). Group and kind alignment
// is by name over the union of both reports, so disjoint span sets diff
// cleanly — a kind present on only one side shows its full time as the
// delta.
type DiffReport struct {
	A, B   string // labels for the two sides
	Groups []GroupDiff
	Movers []Mover // every kind-level delta, |delta| descending
}

// GroupDiff aligns one group key across the two reports. A side that
// lacks the group contributes zeros.
type GroupDiff struct {
	Key            string
	InA, InB       bool
	RootsA, RootsB int
	TimeA, TimeB   time.Duration
	RetryA, RetryB time.Duration
	RebldA, RebldB time.Duration
	Kinds          []KindDiff // sorted by name
}

// KindDiff is one span kind's attributed time on each side.
type KindDiff struct {
	Name         string
	TimeA, TimeB time.Duration
	SegsA, SegsB int
}

// Delta returns B − A: positive means the kind got slower.
func (k *KindDiff) Delta() time.Duration { return k.TimeB - k.TimeA }

// Mover names one kind-level shift for the ranking.
type Mover struct {
	Group, Kind string
	Delta       time.Duration
}

// Diff aligns two reports by group key and kind name.
func Diff(a, b *Report, labelA, labelB string) *DiffReport {
	d := &DiffReport{A: labelA, B: labelB}
	keys := unionKeys(a, b)
	ga := groupIndex(a)
	gb := groupIndex(b)
	for _, key := range keys {
		pa, inA := ga[key]
		pb, inB := gb[key]
		gd := GroupDiff{Key: key, InA: inA, InB: inB}
		kinds := make(map[string]*KindDiff)
		if inA {
			gd.RootsA, gd.TimeA, gd.RetryA, gd.RebldA = pa.Roots, pa.Time, pa.RetryTime, pa.RebuildTime
			for _, k := range pa.Kinds {
				kinds[k.Name] = &KindDiff{Name: k.Name, TimeA: k.Time, SegsA: k.Segs}
			}
		}
		if inB {
			gd.RootsB, gd.TimeB, gd.RetryB, gd.RebldB = pb.Roots, pb.Time, pb.RetryTime, pb.RebuildTime
			for _, k := range pb.Kinds {
				kd, ok := kinds[k.Name]
				if !ok {
					kd = &KindDiff{Name: k.Name}
					kinds[k.Name] = kd
				}
				kd.TimeB, kd.SegsB = k.Time, k.Segs
			}
		}
		for _, n := range mapkeys.Sorted(kinds) {
			kd := *kinds[n]
			gd.Kinds = append(gd.Kinds, kd)
			if kd.Delta() != 0 {
				d.Movers = append(d.Movers, Mover{Group: key, Kind: n, Delta: kd.Delta()})
			}
		}
		d.Groups = append(d.Groups, gd)
	}
	sort.Slice(d.Movers, func(i, j int) bool {
		x, y := d.Movers[i], d.Movers[j]
		ax, ay := x.Delta, y.Delta
		if ax < 0 {
			ax = -ax
		}
		if ay < 0 {
			ay = -ay
		}
		if ax != ay {
			return ax > ay
		}
		if x.Group != y.Group {
			return x.Group < y.Group
		}
		return x.Kind < y.Kind
	})
	return d
}

// WriteText emits the byte-stable diff. Format:
//
//	critpath diff A="..." B="..."
//	group "KEY" roots A/B time A -> B (delta)   [only-in-A / only-in-B noted]
//	  kind NAME A -> B (delta)
//	movers:
//	  1. KEY NAME delta
func (d *DiffReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "critpath diff A=%q B=%q\n", d.A, d.B)
	for gi := range d.Groups {
		g := &d.Groups[gi]
		note := ""
		if !g.InA {
			note = " (only in B)"
		} else if !g.InB {
			note = " (only in A)"
		}
		fmt.Fprintf(bw, "group %q roots %d/%d time %v -> %v (%s)%s\n",
			g.Key, g.RootsA, g.RootsB, g.TimeA, g.TimeB, fmtDelta(g.TimeB-g.TimeA), note)
		if rd := (g.RetryB - g.RetryA); rd != 0 || g.RetryA != 0 || g.RetryB != 0 {
			fmt.Fprintf(bw, "  retry %v -> %v (%s)\n", g.RetryA, g.RetryB, fmtDelta(rd))
		}
		if rd := (g.RebldB - g.RebldA); rd != 0 || g.RebldA != 0 || g.RebldB != 0 {
			fmt.Fprintf(bw, "  rebuild %v -> %v (%s)\n", g.RebldA, g.RebldB, fmtDelta(rd))
		}
		for _, k := range g.Kinds {
			fmt.Fprintf(bw, "  kind %s %v -> %v (%s) segs %d/%d\n",
				k.Name, k.TimeA, k.TimeB, fmtDelta(k.Delta()), k.SegsA, k.SegsB)
		}
	}
	if len(d.Movers) > 0 {
		fmt.Fprintln(bw, "movers:")
		for i, m := range d.Movers {
			fmt.Fprintf(bw, "  %d. %q %s %s\n", i+1, m.Group, m.Kind, fmtDelta(m.Delta))
		}
	}
	return bw.Flush()
}

// String returns the WriteText form.
func (d *DiffReport) String() string {
	var b strings.Builder
	_ = d.WriteText(&b)
	return b.String()
}

// fmtDelta renders a signed duration with an explicit + on gains, so
// "got slower" reads unambiguously in the diff.
func fmtDelta(d time.Duration) string {
	if d >= 0 {
		return "+" + d.String()
	}
	return d.String()
}

func unionKeys(a, b *Report) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, r := range []*Report{a, b} {
		for i := range r.Groups {
			k := r.Groups[i].Key
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func groupIndex(r *Report) map[string]*Group {
	m := make(map[string]*Group, len(r.Groups))
	for i := range r.Groups {
		m[r.Groups[i].Key] = &r.Groups[i]
	}
	return m
}
