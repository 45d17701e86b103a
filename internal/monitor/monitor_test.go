package monitor

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"eslurm/internal/cluster"
	"eslurm/internal/simnet"
)

func newSub(seed int64, computes int, cfg Config) (*cluster.Cluster, *Subsystem) {
	e := simnet.NewEngine(seed)
	c := cluster.New(e, cluster.Config{Computes: computes})
	return c, New(c, cfg)
}

func TestIndicatorCatalogue(t *testing.T) {
	inds := Indicators()
	if len(inds) < 200 {
		t.Fatalf("indicator catalogue has %d entries, paper requires 200+", len(inds))
	}
	seen := map[string]bool{}
	for _, in := range inds {
		if seen[in] {
			t.Fatalf("duplicate indicator %q", in)
		}
		seen[in] = true
	}
}

// TestIndicatorNames pins the catalogue to its "%s.%02d" names, family by
// family in order.
func TestIndicatorNames(t *testing.T) {
	families := []string{
		"voltage", "current", "temperature", "humidity",
		"liquid-cooling", "air-cooling", "nic", "memory", "power-supply", "fan",
	}
	var want []string
	for _, f := range families {
		for i := 0; i < 21; i++ {
			want = append(want, fmt.Sprintf("%s.%02d", f, i))
		}
	}
	if got := Indicators(); !slices.Equal(got, want) {
		t.Fatalf("Indicators() = %q, want %q", got, want)
	}
}

func TestUnitHierarchy(t *testing.T) {
	_, s := newSub(1, 1000, Config{})
	bmu, cmu := s.Units(0)
	if bmu != 0 || cmu != 0 {
		t.Error("node 0 must map to BMU 0 / CMU 0")
	}
	bmu, cmu = s.Units(500)
	if bmu != 500/8 {
		t.Errorf("BMU(500) = %d", bmu)
	}
	if cmu != (500/8)/16 {
		t.Errorf("CMU(500) = %d", cmu)
	}
	if s.BMUCount() <= 0 || s.CMUCount() <= 0 {
		t.Error("unit counts must be positive")
	}
	if s.BMUCount() < s.CMUCount() {
		t.Error("hierarchy inverted")
	}
}

func TestImpendingFailureAlertPrecedesFailure(t *testing.T) {
	c, s := newSub(2, 100, Config{DetectionProb: 1.0})
	var alerts []Alert
	s.Subscribe(func(a Alert) { alerts = append(alerts, a) })
	failAt := 2 * time.Hour
	node := c.Computes()[5]
	s.NoticeImpendingFailure(node, failAt)
	c.ScheduleFailure(node, failAt, 0)
	c.Engine.Run()

	if len(alerts) < 2 {
		t.Fatalf("alerts = %d, want critical + failure (+ repeats)", len(alerts))
	}
	crit, fail := alerts[0], alerts[1]
	if crit.Severity != SevCritical || fail.Severity != SevFailure {
		t.Fatalf("severities = %v, %v", crit.Severity, fail.Severity)
	}
	// The node never recovers, so the alarm repeats up to the cap.
	for _, a := range alerts[2:] {
		if a.Severity != SevFailure {
			t.Fatalf("repeat alert severity = %v", a.Severity)
		}
	}
	if crit.At >= failAt {
		t.Errorf("critical alert at %v not before failure at %v", crit.At, failAt)
	}
	if crit.Node != node {
		t.Error("alert names wrong node")
	}
}

func TestRepeatAlertsStopOnRecovery(t *testing.T) {
	c, s := newSub(9, 50, Config{DetectionProb: -1})
	count := 0
	s.Subscribe(func(a Alert) { count++ })
	node := c.Computes()[0]
	s.NoticeImpendingFailure(node, time.Hour)
	c.ScheduleFailure(node, time.Hour, 35*time.Minute) // recovers at t=1h35m
	c.Engine.RunUntil(6 * time.Hour)
	// Initial failure alert + repeats at +10, +20, +30 minutes; the checks
	// after recovery emit nothing.
	if count < 3 || count > 5 {
		t.Fatalf("alerts = %d, want ~4 (initial + 3 repeats before recovery)", count)
	}
}

func TestDetectionProbZeroGivesOnlyPostHoc(t *testing.T) {
	_, s := newSub(3, 100, Config{DetectionProb: -1}) // forced below any draw
	// DetectionProb<=0 is replaced by default in withDefaults only when 0;
	// use -1 to force "never detect" without triggering the default.
	var alerts []Alert
	s.Subscribe(func(a Alert) { alerts = append(alerts, a) })
	for i := 0; i < 20; i++ {
		s.NoticeImpendingFailure(cluster.NodeID(i+1), time.Hour)
	}
	// The nodes never actually fail (no ScheduleFailure), so no repeat
	// alarms fire: exactly one post-hoc alert each.
	s.engine.RunUntil(3 * time.Hour)
	for _, a := range alerts {
		if a.Severity != SevFailure {
			t.Fatalf("got pre-failure alert with detection disabled: %+v", a)
		}
	}
	if len(alerts) != 20 {
		t.Fatalf("post-hoc alerts = %d, want 20", len(alerts))
	}
}

func TestNoiseRate(t *testing.T) {
	c, s := newSub(4, 1000, Config{FalseAlertsPerNodeDay: 1.0})
	count := 0
	s.Subscribe(func(a Alert) {
		count++
		if a.Severity != SevWarning {
			t.Errorf("noise alert severity %v", a.Severity)
		}
	})
	c.Engine.RunUntil(24 * time.Hour)
	// Expect ~1000 spurious alerts (1/node/day); allow generous slack.
	if count < 700 || count > 1300 {
		t.Fatalf("spurious alerts in 24h = %d, want ~1000", count)
	}
	if s.FalseAlerts() != count {
		t.Errorf("FalseAlerts() = %d, emitted %d", s.FalseAlerts(), count)
	}
}

func TestDetectionProbStatistics(t *testing.T) {
	c, s := newSub(5, 2000, Config{DetectionProb: 0.85})
	crit := 0
	s.Subscribe(func(a Alert) {
		if a.Severity == SevCritical {
			crit++
		}
	})
	n := 1000
	for i := 0; i < n; i++ {
		s.NoticeImpendingFailure(c.Computes()[i], time.Hour)
	}
	c.Engine.Run()
	frac := float64(crit) / float64(n)
	if frac < 0.80 || frac > 0.90 {
		t.Fatalf("detection fraction = %.3f, want ~0.85", frac)
	}
}

func TestSeverityString(t *testing.T) {
	if SevWarning.String() != "warning" || SevCritical.String() != "critical" || SevFailure.String() != "failure" {
		t.Error("severity strings wrong")
	}
	if Severity(9).String() == "" {
		t.Error("unknown severity must print")
	}
}

func TestLateNoticeClampsToNow(t *testing.T) {
	c, s := newSub(6, 10, Config{DetectionProb: 1.0, LeadTime: time.Hour})
	var critAt time.Duration = -1
	s.Subscribe(func(a Alert) {
		if a.Severity == SevCritical {
			critAt = a.At
		}
	})
	// Failure in 1 minute, lead time ~1h: alert must clamp to ~now.
	c.Engine.Schedule(10*time.Second, func() {
		s.NoticeImpendingFailure(1, c.Engine.Now()+time.Minute)
	})
	c.Engine.Run()
	if critAt < 0 {
		t.Fatal("no critical alert")
	}
	if critAt > 11*time.Second {
		t.Errorf("clamped alert fired at %v, want ~10s", critAt)
	}
}
