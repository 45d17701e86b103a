package config

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"eslurm/internal/hostlist"
)

// FuzzParse feeds arbitrary text to Parse. It must return an error or a
// configuration whose durations are non-negative (a huge bare-minute
// value must not wrap), whose estimator alpha is finite, whose records
// are complete, and whose derived core and framework configurations can
// be built — never panic.
func FuzzParse(f *testing.F) {
	conf, err := os.ReadFile("../../testdata/eslurm.conf")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(conf))
	f.Add(sample)
	f.Add("TreeWidth=-3\nReallocLimit=0\n")
	f.Add("HeartbeatInterval=15\nDrainDeadline=2m\nPartitionName=p MaxTime=INFINITE\n")
	f.Add("NodeName=cn[1-4] CPUs=x\n")
	f.Add("Key=a=b # trailing comment\nunknownkey=1\n")
	// A bare-minute duration past time.Duration's range, a negative
	// duration and a non-finite alpha: each must be refused.
	f.Add("HeartbeatInterval=153722867281\n")
	f.Add("PartitionName=p MaxTime=-5m\n")
	f.Add("EstimatorAlpha=NaN\n")
	f.Fuzz(func(t *testing.T, text string) {
		// Parse expands host ranges in full; skip inputs that name more
		// hosts than a fuzz iteration should allocate.
		for _, tok := range strings.Fields(text) {
			if _, v, ok := strings.Cut(tok, "="); ok {
				if n, err := hostlist.Count(v); err == nil && (n < 0 || n > 1<<16) {
					return
				}
			}
		}
		cfg, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		durations := []time.Duration{cfg.HeartbeatInterval, cfg.EstimatorRefresh, cfg.ReconcileInterval, cfg.DrainDeadline}
		for _, p := range cfg.Partitions {
			durations = append(durations, p.MaxTime)
			if p.Name == "" {
				t.Fatal("partition without a name")
			}
		}
		for _, d := range durations {
			if d < 0 {
				t.Fatalf("negative duration %v", d)
			}
		}
		if math.IsNaN(cfg.EstimatorAlpha) || math.IsInf(cfg.EstimatorAlpha, 0) {
			t.Fatalf("non-finite EstimatorAlpha %v", cfg.EstimatorAlpha)
		}
		n := 0
		for _, d := range cfg.Nodes {
			if len(d.Names) == 0 {
				t.Fatal("NodeName record without names")
			}
			n += len(d.Names)
		}
		if cfg.ComputeCount() != n {
			t.Fatalf("ComputeCount %d, records name %d hosts", cfg.ComputeCount(), n)
		}
		if cc := cfg.CoreConfig(); cc.TreeWidth <= 0 || cc.ReallocLimit <= 0 || cc.HeartbeatInterval <= 0 {
			t.Fatalf("core config not positive: %+v", cc)
		}
		cfg.FrameworkConfig()
	})
}
