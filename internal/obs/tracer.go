package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"time"
)

// SpanID names one span within its Tracer. The zero SpanID means "no
// span": it is what a nil Tracer returns from Start, and what callers
// pass as parent for a root span, so instrumentation threads parents
// through callbacks without caring whether tracing is on.
type SpanID int32

// Span is the recorded form of one traced operation. Times are virtual
// (the injected clock's values), not host time.
type Span struct {
	Name   string
	Parent SpanID
	Start  time.Duration
	// End is valid only when Ended is true; a span left open at export
	// time (e.g. a simulation stopped mid-broadcast) stays unclosed in
	// the export rather than being given a fake end.
	End     time.Duration
	Ended   bool
	Instant bool
	Attrs   []Attr
}

// opKind discriminates entries of the tracer's chronological log.
type opKind uint8

const (
	opBegin opKind = iota
	opEnd
	opInstant
)

// op is one entry in the chronological log. Keeping an explicit log —
// rather than sorting spans at export time — preserves the true causal
// order natively: a parent's begin precedes its children's, ties at the
// same virtual instant keep program order, and no sort (stable or not)
// has to reconstruct it.
type op struct {
	kind opKind
	span SpanID
	at   time.Duration
}

// Tracer records spans in simulated time. The zero value is not useful;
// build one with NewTracer (or simnet.Engine.EnableTracing). All methods
// are safe on a nil receiver and do nothing, so instrumented code calls
// them unconditionally — disabled tracing is a nil check.
//
// A Tracer is single-threaded, like the engine whose clock it borrows.
type Tracer struct {
	clock func() time.Duration
	spans []Span
	ops   []op
}

// NewTracer returns a tracer stamping events with clock. Pass the
// engine's Now so spans live in virtual time.
func NewTracer(clock func() time.Duration) *Tracer {
	return &Tracer{clock: clock}
}

// Start opens a span under parent (0 for a root span) and returns its
// ID. On a nil tracer it returns 0, which every other method ignores.
func (t *Tracer) Start(name string, parent SpanID, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	now := t.clock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: now, Attrs: attrs})
	id := SpanID(len(t.spans))
	t.ops = append(t.ops, op{opBegin, id, now})
	return id
}

// End closes the span at the current virtual time. Ending a zero or
// already-ended span is a no-op.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	if sp.Ended || sp.Instant {
		return
	}
	now := t.clock()
	sp.End, sp.Ended = now, true
	t.ops = append(t.ops, op{opEnd, id, now})
}

// SetAttr annotates a span. Attributes may be added any time before
// export (a broadcast span learns its delivered count only at the end);
// exports always carry the final set.
func (t *Tracer) SetAttr(id SpanID, key, value string) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates a span with an integer value.
func (t *Tracer) SetAttrInt(id SpanID, key string, v int) {
	if t == nil || id == 0 {
		return // before formatting: a disabled tracer costs nothing
	}
	t.SetAttr(id, key, fmtInt(v))
}

// Instant records a zero-duration event (a state transition, an alert)
// under parent, and returns its ID so callers may attach further
// attributes.
func (t *Tracer) Instant(name string, parent SpanID, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	now := t.clock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: now, Instant: true, Attrs: attrs})
	id := SpanID(len(t.spans))
	t.ops = append(t.ops, op{opInstant, id, now})
	return id
}

// Len returns the number of recorded spans and instants (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the recorded spans in creation order. The slice is the
// tracer's own storage: read, don't mutate.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteText writes the chronological, byte-stable text dump: one line
// per begin/end/instant in record order. Begin and instant lines carry
// the span's final attributes; end lines repeat only the name.
//
//	b <ns> <id> <name> [parent=<id>] [key=value ...]
//	e <ns> <id> <name>
//	i <ns> <id> <name> [parent=<id>] [key=value ...]
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, o := range t.ops {
		sp := &t.spans[o.span-1]
		var err error
		switch o.kind {
		case opEnd:
			_, err = fmt.Fprintf(w, "e %d %d %s\n", o.at, o.span, sp.Name)
		default:
			kind := "b"
			if o.kind == opInstant {
				kind = "i"
			}
			_, err = fmt.Fprintf(w, "%s %d %d %s%s%s\n", kind, o.at, o.span, sp.Name, parentSuffix(sp.Parent), attrSuffix(sp.Attrs))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Digest returns the FNV-64a hash of the WriteText dump — the compact
// fingerprint determinism tests pin (same seed, same digest, bit for
// bit).
func (t *Tracer) Digest() uint64 {
	if t == nil {
		return 0
	}
	h := fnv.New64a()
	// fnv's Write never fails; WriteText only surfaces writer errors.
	_ = t.WriteText(h)
	return h.Sum64()
}

func parentSuffix(p SpanID) string {
	if p == 0 {
		return ""
	}
	return " parent=" + fmtInt(int(p))
}

func attrSuffix(attrs []Attr) string {
	var s string
	for _, a := range attrs {
		s += " " + a.Key + "=" + a.Value
	}
	return s
}

// fmtInt is strconv.Itoa under a short local name.
func fmtInt(v int) string { return strconv.Itoa(v) }
