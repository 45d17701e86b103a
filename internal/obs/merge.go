package obs

// Merge folds src's instruments into r: counters and gauges sum,
// histograms add bucket-wise. The result is deterministic: addition is
// commutative and associative, and the merged registry's
// Snapshot/WriteText output depends only on the multiset of (name,
// value) pairs, never on merge order.
//
// Histogram bounds must match instrument-for-instrument; a mismatch
// means two registries registered the same name with different shapes,
// which is a model bug, and Merge panics rather than fold incomparable
// buckets.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for name, c := range src.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range src.gauges {
		r.Gauge(name).Add(g.Value())
	}
	for name, h := range src.hists {
		dst := r.Histogram(name, h.Bounds())
		if len(dst.bounds) != len(h.bounds) {
			panic("obs: Merge histogram " + name + ": bucket count mismatch")
		}
		for i, b := range dst.bounds {
			if b != h.bounds[i] {
				panic("obs: Merge histogram " + name + ": bucket bounds mismatch")
			}
		}
		dst.count += h.count
		dst.sum += h.sum
		for i, c := range h.counts {
			dst.counts[i] += c
		}
	}
}
