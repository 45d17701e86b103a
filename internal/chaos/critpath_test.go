package chaos

import (
	"strings"
	"testing"
)

// TestOneCellCritpathDeterminism: the soak's critical-path report is
// byte-identical across reruns of the same seed, and its digest is pinned
// — any change to span emission or the attribution walk moves it and must
// be deliberate.
func TestOneCellCritpathDeterminism(t *testing.T) {
	run := func() string {
		cfg := pinCfg()
		cfg.Seeds = 1
		cfg.Trace = true
		rep := Soak(cfg)
		if rep.Violations() > 0 {
			t.Fatalf("soak violated invariants:\n%s", rep.String())
		}
		return rep.CritpathReport(5).String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed critpath reports differ:\n%s\nvs\n%s", a, b)
	}
	const want = "digest=8f344c547283a4ac"
	if !strings.Contains(a, want) {
		tail := a
		if i := strings.LastIndex(tail, "digest="); i >= 0 {
			tail = tail[i:]
		}
		t.Errorf("critpath report digest moved off its pin: got %s want %s", strings.TrimSpace(tail), want)
	}
}
