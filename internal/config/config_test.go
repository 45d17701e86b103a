package config

import (
	"strings"
	"testing"
	"time"
)

const sample = `
# ESlurm configuration for the simulated NG-Tianhe partition.
ClusterName=ng-tianhe
ControlMachine=mgmt01

# --- ESlurm additions -------------------------------------------------
SatelliteNodes=sat[01-20]
TreeWidth=32
ReallocLimit=2
HeartbeatInterval=150s

EstimatorWindow=700
EstimatorRefresh=15h
EstimatorK=15
EstimatorAlpha=1.05

# --- standard records --------------------------------------------------
NodeName=cn[0001-1024] CPUs=96 RealMemory=196608 State=UNKNOWN
NodeName=gpu[01-08] CPUs=48 RealMemory=393216
PartitionName=batch Nodes=cn[0001-1024] MaxTime=7200 Default=YES
PartitionName=gpu Nodes=gpu[01-08] MaxTime=INFINITE

# unknown keys are preserved, like slurm.conf plugin options
SchedulerType=sched/backfill
`

func TestParseSample(t *testing.T) {
	cfg, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ClusterName != "ng-tianhe" || cfg.ControlMachine != "mgmt01" {
		t.Errorf("header wrong: %+v", cfg)
	}
	if len(cfg.SatelliteNodes) != 20 || cfg.SatelliteNodes[0] != "sat01" {
		t.Errorf("satellites = %v", cfg.SatelliteNodes)
	}
	if cfg.TreeWidth != 32 || cfg.ReallocLimit != 2 {
		t.Errorf("comm params wrong: %+v", cfg)
	}
	if cfg.HeartbeatInterval != 150*time.Second {
		t.Errorf("heartbeat = %v", cfg.HeartbeatInterval)
	}
	if cfg.EstimatorWindow != 700 || cfg.EstimatorRefresh != 15*time.Hour ||
		cfg.EstimatorK != 15 || cfg.EstimatorAlpha != 1.05 {
		t.Errorf("estimator params wrong: %+v", cfg)
	}
	if cfg.ComputeCount() != 1032 {
		t.Errorf("ComputeCount = %d, want 1032", cfg.ComputeCount())
	}
	if len(cfg.Nodes) != 2 || cfg.Nodes[0].CPUs != 96 || cfg.Nodes[1].RealMemoryMB != 393216 {
		t.Errorf("node defs wrong: %+v", cfg.Nodes)
	}
	if len(cfg.Partitions) != 2 {
		t.Fatalf("partitions = %d", len(cfg.Partitions))
	}
	batch := cfg.Partitions[0]
	if batch.Name != "batch" || !batch.Default || batch.MaxTime != 7200*time.Minute {
		t.Errorf("batch partition wrong: %+v", batch)
	}
	if cfg.Partitions[1].MaxTime != 0 {
		t.Error("INFINITE MaxTime must map to 0")
	}
	if cfg.Extra["schedulertype"] != "sched/backfill" {
		t.Errorf("extra keys not preserved: %v", cfg.Extra)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"NodeName=cn[3-1] CPUs=4",         // bad hostlist
		"TreeWidth=abc",                   // bad int
		"HeartbeatInterval=xyz",           // bad duration
		"ClusterName=a b=2",               // extra fields on scalar
		"NodeName=cn1 Bogus=1",            // unknown node attribute
		"PartitionName=p Nodes=cn1 Q=1",   // unknown partition attribute
		"PartitionName=p MaxTime=forever", // bad MaxTime
		"CPUs=4 NodeName=",                // malformed
		"justtext",                        // not key=value
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) did not fail", c)
		}
	}
}

func TestParseEmptyAndComments(t *testing.T) {
	cfg, err := Parse(strings.NewReader("\n# only comments\n   \n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ComputeCount() != 0 {
		t.Error("empty config has nodes")
	}
}

func TestCoreConfigMapping(t *testing.T) {
	cfg, err := Parse(strings.NewReader("TreeWidth=16\nReallocLimit=3\nHeartbeatInterval=2m"))
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.CoreConfig()
	if cc.TreeWidth != 16 || cc.ReallocLimit != 3 || cc.HeartbeatInterval != 2*time.Minute {
		t.Errorf("core mapping wrong: %+v", cc)
	}
	// Unset values keep core defaults.
	if cc.TaskTimeout == 0 {
		t.Error("defaults lost in mapping")
	}
}

func TestFrameworkConfigMapping(t *testing.T) {
	cfg, err := Parse(strings.NewReader("EstimatorWindow=350\nEstimatorAlpha=1.07"))
	if err != nil {
		t.Fatal(err)
	}
	fc := cfg.FrameworkConfig()
	if fc.InterestWindow != 350 || fc.Alpha != 1.07 {
		t.Errorf("framework mapping wrong: %+v", fc)
	}
}

func TestBareMinutesDuration(t *testing.T) {
	cfg, err := Parse(strings.NewReader("HeartbeatInterval=5"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HeartbeatInterval != 5*time.Minute {
		t.Errorf("bare minutes = %v", cfg.HeartbeatInterval)
	}
}
