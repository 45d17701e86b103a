package obs_test

// Edge-case coverage for the Chrome exporter and registry merge: the
// shapes a degraded or partial recording can contain — orphan parent
// ids, zero-duration spans, instant-only traces — must still serialize
// to valid, byte-stable JSON, because the chaos harness exports traces
// from runs whose whole point is that things went wrong.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"eslurm/internal/obs"
)

// chromeDoc mirrors the exported document shape for validity checks.
type chromeDoc struct {
	TraceEvents []struct {
		Ph   string                     `json:"ph"`
		ID   string                     `json:"id"`
		PID  int                        `json:"pid"`
		TS   json.Number                `json:"ts"`
		Name string                     `json:"name"`
		Args map[string]json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func exportOne(t *testing.T, tr *obs.Tracer) (string, chromeDoc) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, obs.Process{PID: 0, Name: "edge", T: tr}); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	return buf.String(), doc
}

// TestWriteChromeOrphanParent: a span recorded with a parent id that was
// never created still exports — the dangling ref is written as-is and
// the document stays valid JSON (viewers drop the unresolvable link, the
// critpath analyzer counts it as an orphan root).
func TestWriteChromeOrphanParent(t *testing.T) {
	c := &fakeClock{}
	tr := obs.NewTracer(c.Now)
	s := tr.Start("comm.send", obs.SpanID(99), obs.Int("to", 3))
	c.now = time.Microsecond
	tr.End(s)

	out, doc := exportOne(t, tr)
	if !strings.Contains(out, `"parent":"p0.99"`) {
		t.Errorf("orphan parent ref missing from export:\n%s", out)
	}
	if len(doc.TraceEvents) != 3 { // process_name meta + b + e
		t.Errorf("got %d records, want 3:\n%s", len(doc.TraceEvents), out)
	}
}

// TestWriteChromeZeroDurationSpan: begin and end at the same virtual
// instant serialize as distinct records with identical timestamps.
func TestWriteChromeZeroDurationSpan(t *testing.T) {
	c := &fakeClock{now: 5 * time.Microsecond}
	tr := obs.NewTracer(c.Now)
	s := tr.Start("fptree.plan", 0)
	tr.End(s) // clock not advanced

	out, doc := exportOne(t, tr)
	var b, e string
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			b = ev.TS.String()
		case "e":
			e = ev.TS.String()
		}
	}
	if b == "" || e == "" || b != e {
		t.Errorf("zero-duration span: begin ts %q, end ts %q (want equal, non-empty):\n%s", b, e, out)
	}
}

// TestWriteChromeInstantOnly: a recording holding nothing but instants
// (a run where no span was ever opened) exports every instant as an "n"
// record, alongside a nil-tracer process that contributes only its name.
func TestWriteChromeInstantOnly(t *testing.T) {
	c := &fakeClock{}
	tr := obs.NewTracer(c.Now)
	tr.Instant("predict.alert", 0, obs.Int("node", 4))
	c.now = 3 * time.Microsecond
	tr.Instant("sched.crash", 0)

	var buf bytes.Buffer
	err := obs.WriteChrome(&buf,
		obs.Process{PID: 0, Name: "instants", T: tr},
		obs.Process{PID: 1, Name: "empty", T: nil},
	)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var instants, metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "n":
			instants++
		case "M":
			metas++
		}
	}
	if instants != 2 || metas != 2 {
		t.Errorf("got %d instants and %d metadata records, want 2 and 2:\n%s",
			instants, metas, buf.String())
	}
}
