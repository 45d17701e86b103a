//eslurmlint:testpath eslurm/internal/mapkeys

// Package maprange_helper pretends (via the testpath directive) to be
// internal/mapkeys, the one package allowed to range over a map: its
// Sorted visits the entries once and sorts what it collects.
package maprange_helper

import "slices"

func Sorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
