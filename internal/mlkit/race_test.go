//go:build race

package mlkit

// The allocation budgets skip under the race detector, whose
// instrumentation allocates on its own.
func init() { raceEnabled = true }
