package simnet

import (
	"testing"
	"time"
)

func TestEngineTracerRecordsVirtualTime(t *testing.T) {
	e := NewEngine(1)
	if e.Tracer() != nil {
		t.Fatal("tracer non-nil before EnableTracing")
	}
	tr := e.EnableTracing()
	if tr == nil || e.Tracer() != tr || e.EnableTracing() != tr {
		t.Fatal("EnableTracing not idempotent")
	}
	var id = tr.Start("tick", 0)
	e.After(5*time.Millisecond, func() { tr.End(id) })
	e.Run()
	sp := tr.Spans()[0]
	if sp.Start != 0 || !sp.Ended || sp.End != 5*time.Millisecond {
		t.Fatalf("span not stamped with virtual time: %+v", sp)
	}
}

func TestEngineMetricsLazyAndStable(t *testing.T) {
	e := NewEngine(1)
	if e.metrics != nil {
		t.Fatal("registry built before first Metrics call")
	}
	r := e.Metrics()
	if r == nil || e.Metrics() != r {
		t.Fatal("Metrics not a stable singleton")
	}
	r.Counter("x").Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("counter lost")
	}
}

func TestTracingDoesNotPerturbEventTrace(t *testing.T) {
	run := func(enable bool) string {
		e := NewEngine(99)
		if enable {
			e.EnableTracing()
		}
		var dig string
		e.Observe(func(at time.Duration, seq uint64) {
			dig += time.Duration(at).String() + ":" + string(rune('0'+seq%10))
		})
		tr := e.Tracer()
		for i := 0; i < 5; i++ {
			i := i
			e.After(time.Duration(i+1)*time.Millisecond, func() {
				id := tr.Start("work", 0)
				e.Rand("trace-check").Int63()
				tr.End(id)
			})
		}
		e.Run()
		return dig
	}
	if run(false) != run(true) {
		t.Fatal("enabling tracing changed the event trace")
	}
}
