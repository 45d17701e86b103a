package obs

// Chrome trace_event JSON export (the "JSON Array Format" with async
// nestable events), loadable in chrome://tracing and Perfetto.
//
// Spans become async "b"/"e" pairs rather than "X" complete events:
// sibling spans in a discrete-event simulation overlap freely (a star
// broadcast opens one send span per target at the same virtual instant),
// which the synchronous call-stack model of "X" events cannot represent.
// Every span gets a globally unique id ("p<pid>.<span>"), so viewers
// never mis-pair begins and ends across processes; the parent link rides
// in args.parent.
//
// The writer emits records in the tracer's chronological op order with
// hand-formatted timestamps (virtual nanoseconds rendered as microsecond
// strings), so the same recording always serializes to the same bytes —
// the property the digest-pinned determinism tests rely on.

import (
	"encoding/json"
	"io"
	"strconv"
	"time"
)

// Process names one tracer in a multi-process export. The chaos soak
// maps each seed to a process so Perfetto shows seeds side by side.
type Process struct {
	// PID is the trace-level process id; keep them distinct per process.
	PID int
	// Name labels the process track ("seed 3", "engine 0").
	Name string
	// T is the recording; a nil tracer contributes only its name row.
	T *Tracer
}

// WriteChrome writes one Chrome trace_event JSON document containing
// every process's spans. Output is byte-stable: same recordings, same
// bytes.
func WriteChrome(w io.Writer, procs ...Process) error {
	cw := &chromeWriter{w: w}
	cw.raw("{\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			cw.raw(",\n")
		}
		first = false
	}
	for _, p := range procs {
		sep()
		cw.raw(`{"ph":"M","name":"process_name","pid":`)
		cw.raw(strconv.Itoa(p.PID))
		cw.raw(`,"tid":0,"args":{"name":`)
		cw.str(p.Name)
		cw.raw("}}")
		if p.T == nil {
			continue
		}
		for _, o := range p.T.ops {
			sep()
			cw.event(p.PID, p.T, o)
		}
	}
	cw.raw("\n]}\n")
	return cw.err
}

// chromeWriter accumulates the first write error so call sites stay
// linear: no write error is dropped, yet no Fprintf needs its own check.
type chromeWriter struct {
	w   io.Writer
	err error
}

func (c *chromeWriter) raw(s string) {
	if c.err != nil {
		return
	}
	_, c.err = io.WriteString(c.w, s)
}

// str writes a JSON-escaped string literal.
func (c *chromeWriter) str(s string) {
	if c.err != nil {
		return
	}
	b, err := json.Marshal(s)
	if err != nil {
		c.err = err
		return
	}
	_, c.err = c.w.Write(b)
}

// event writes one trace record for op o of tracer t under pid.
func (c *chromeWriter) event(pid int, t *Tracer, o op) {
	sp := &t.spans[o.span-1]
	ph := "b"
	switch o.kind {
	case opEnd:
		ph = "e"
	case opInstant:
		ph = "n"
	}
	c.raw(`{"ph":"`)
	c.raw(ph)
	c.raw(`","cat":"eslurm","id":"`)
	c.raw(spanRef(pid, o.span))
	c.raw(`","pid":`)
	c.raw(strconv.Itoa(pid))
	c.raw(`,"tid":0,"ts":`)
	c.raw(microTS(o.at))
	c.raw(`,"name":`)
	c.str(sp.Name)
	if o.kind != opEnd && (sp.Parent != 0 || len(sp.Attrs) > 0) {
		c.raw(`,"args":{`)
		comma := false
		if sp.Parent != 0 {
			c.raw(`"parent":"`)
			c.raw(spanRef(pid, sp.Parent))
			c.raw(`"`)
			comma = true
		}
		for _, a := range sp.Attrs {
			if comma {
				c.raw(",")
			}
			comma = true
			c.str(a.Key)
			c.raw(":")
			c.str(a.Value)
		}
		c.raw("}")
	}
	c.raw("}")
}

// spanRef renders the globally unique async-event id for a span.
func spanRef(pid int, id SpanID) string {
	return "p" + strconv.Itoa(pid) + "." + strconv.Itoa(int(id))
}

// microTS renders virtual nanoseconds as the microsecond timestamp the
// trace_event format expects, with fixed three-digit fractions so the
// bytes never depend on float formatting.
func microTS(at time.Duration) string {
	n := int64(at)
	return strconv.FormatInt(n/1000, 10) + "." + pad3(n%1000)
}

func pad3(n int64) string {
	s := strconv.FormatInt(n, 10)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}
