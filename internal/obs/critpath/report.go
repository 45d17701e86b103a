package critpath

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"
)

// Report is the aggregated critical-path attribution of one analysis.
// WriteText is byte-stable (same spans, same bytes) and self-verifying:
// the final line carries the FNV-64a digest of everything above it,
// which Parse re-checks, so a report file round-trips losslessly into
// Diff.
type Report struct {
	Sources  int // traces analyzed
	Spans    int // spans + instants seen
	Roots    int // ended root spans analyzed
	Open     int // root spans skipped because still open
	Orphans  int // spans whose parent id did not resolve
	Instants int // instant events seen

	Total       time.Duration // summed root durations
	RetryTime   time.Duration // critical time on spans with a comm.retry child
	RebuildTime time.Duration // critical time on non-first fptree.plan/build
	Retries     int           // comm.retry instants under analyzed roots
	Adopts      int           // comm.adopt instants under analyzed roots

	Groups []Group // sorted by Key
	Paths  []Path  // the Options.TopK slowest roots, slowest first
}

// Group aggregates every root sharing one key (source group + root kind
// + structure/targets when present).
type Group struct {
	Key         string
	Roots       int
	Time        time.Duration // summed root durations
	Max         time.Duration // slowest root
	RetryTime   time.Duration
	RebuildTime time.Duration
	Retries     int
	Adopts      int
	Kinds       []KindAttr // sorted by Name

	kinds map[string]*KindAttr // build-time index; nil after Analyze
}

// Mean returns the group's mean root duration (0 when empty).
func (g *Group) Mean() time.Duration {
	if g.Roots == 0 {
		return 0
	}
	return g.Time / time.Duration(g.Roots)
}

// KindAttr is the critical time one span kind owns within a group: the
// summed self-intervals the backward walk attributed to spans of this
// name, and how many distinct spans contributed.
type KindAttr struct {
	Name string
	Time time.Duration
	Segs int
}

// Path is one root's critical path: the spine of last-finishing
// descendants, each hop annotated with the simulated time attributed to
// the hop itself (its Self values sum to Dur).
type Path struct {
	Dur   time.Duration
	Label string
	Group string
	Chain []Hop

	// Tie-break fields for the slowest-first sort; not serialized.
	start time.Duration
	order int
}

// Hop is one span on a critical path.
type Hop struct {
	Name string
	Self time.Duration
}

// WriteText emits the canonical report. Format (one block per group,
// one line per kind/path, digest trailer):
//
//	critpath report v1
//	sources=N spans=N roots=N open=N orphans=N instants=N
//	total time=D retry=D rebuild=D retries=N adopts=N
//	group "KEY" roots=N time=D mean=D max=D retry=D rebuild=D retries=N adopts=N
//	  kind NAME time=D segs=N share=0.NNNN
//	path K dur=D label="L" group="KEY" chain=a[D]->b[D]
//	digest=%016x
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := fnv.New64a()
	mw := io.MultiWriter(bw, h)

	fmt.Fprintln(mw, "critpath report v1")
	fmt.Fprintf(mw, "sources=%d spans=%d roots=%d open=%d orphans=%d instants=%d\n",
		r.Sources, r.Spans, r.Roots, r.Open, r.Orphans, r.Instants)
	fmt.Fprintf(mw, "total time=%v retry=%v rebuild=%v retries=%d adopts=%d\n",
		r.Total, r.RetryTime, r.RebuildTime, r.Retries, r.Adopts)
	for gi := range r.Groups {
		g := &r.Groups[gi]
		fmt.Fprintf(mw, "group %q roots=%d time=%v mean=%v max=%v retry=%v rebuild=%v retries=%d adopts=%d\n",
			g.Key, g.Roots, g.Time, g.Mean(), g.Max, g.RetryTime, g.RebuildTime, g.Retries, g.Adopts)
		for _, k := range g.Kinds {
			fmt.Fprintf(mw, "  kind %s time=%v segs=%d share=%s\n",
				k.Name, k.Time, k.Segs, share(k.Time, g.Time))
		}
	}
	for i, p := range r.Paths {
		fmt.Fprintf(mw, "path %d dur=%v label=%q group=%q chain=%s\n",
			i+1, p.Dur, p.Label, p.Group, chainString(p.Chain))
	}
	fmt.Fprintf(bw, "digest=%016x\n", h.Sum64())
	return bw.Flush()
}

// String returns the WriteText form.
func (r *Report) String() string {
	var b bytes.Buffer
	// bytes.Buffer writes never fail.
	_ = r.WriteText(&b)
	return b.String()
}

// Digest returns the FNV-64a hash of the report body (the value of the
// digest trailer line).
func (r *Report) Digest() uint64 {
	h := fnv.New64a()
	_ = r.writeBody(h)
	return h.Sum64()
}

// writeBody emits everything above the digest line into w.
func (r *Report) writeBody(w io.Writer) error {
	var b bytes.Buffer
	_ = r.WriteText(&b)
	s := b.String()
	i := strings.LastIndex(s, "digest=")
	_, err := io.WriteString(w, s[:i])
	return err
}

// share renders t/total with four decimals; "0.0000" when total is 0.
func share(t, total time.Duration) string {
	if total == 0 {
		return "0.0000"
	}
	return strconv.FormatFloat(float64(t)/float64(total), 'f', 4, 64)
}

func chainString(chain []Hop) string {
	var b strings.Builder
	for i, h := range chain {
		if i > 0 {
			b.WriteString("->")
		}
		b.WriteString(h.Name)
		b.WriteString("[")
		b.WriteString(h.Self.String())
		b.WriteString("]")
	}
	return b.String()
}

// Parse reads a WriteText report back, verifying its digest trailer.
// The round trip is exact for every field Diff consumes; path tie-break
// scratch fields are not serialized and parse to zero.
func Parse(r io.Reader) (*Report, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 4 {
		return nil, fmt.Errorf("critpath: truncated report (%d lines)", len(lines))
	}
	if lines[0] != "critpath report v1" {
		return nil, fmt.Errorf("critpath: not a report: %q", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "digest=") {
		return nil, fmt.Errorf("critpath: missing digest trailer")
	}
	want, err := strconv.ParseUint(strings.TrimPrefix(last, "digest="), 16, 64)
	if err != nil {
		return nil, fmt.Errorf("critpath: bad digest trailer: %v", err)
	}
	h := fnv.New64a()
	for _, l := range lines[:len(lines)-1] {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	if got := h.Sum64(); got != want {
		return nil, fmt.Errorf("critpath: digest mismatch: file says %016x, body hashes to %016x", want, got)
	}

	rep := &Report{}
	if err := parseKV(lines[1], "sources", &rep.Sources, "spans", &rep.Spans, "roots", &rep.Roots,
		"open", &rep.Open, "orphans", &rep.Orphans, "instants", &rep.Instants); err != nil {
		return nil, err
	}
	if err := parseTotals(lines[2], rep); err != nil {
		return nil, err
	}
	var g *Group
	flush := func() {
		if g != nil {
			rep.Groups = append(rep.Groups, *g)
			g = nil
		}
	}
	for _, l := range lines[3 : len(lines)-1] {
		switch {
		case strings.HasPrefix(l, "group "):
			flush()
			var err error
			g, err = parseGroup(l)
			if err != nil {
				return nil, err
			}
		case strings.HasPrefix(l, "  kind "):
			if g == nil {
				return nil, fmt.Errorf("critpath: kind line outside group: %q", l)
			}
			k, err := parseKind(l)
			if err != nil {
				return nil, err
			}
			g.Kinds = append(g.Kinds, k)
		case strings.HasPrefix(l, "path "):
			flush()
			p, err := parsePath(l)
			if err != nil {
				return nil, err
			}
			rep.Paths = append(rep.Paths, p)
		default:
			return nil, fmt.Errorf("critpath: unrecognized line: %q", l)
		}
	}
	flush()
	return rep, nil
}

// parseKV pulls int fields from a "k=v k=v" line; pairs are (key, *int).
func parseKV(line string, pairs ...any) error {
	fields := strings.Fields(line)
	vals := make(map[string]string, len(fields))
	for _, f := range fields {
		if k, v, ok := strings.Cut(f, "="); ok {
			vals[k] = v
		}
	}
	for i := 0; i < len(pairs); i += 2 {
		key := pairs[i].(string)
		v, ok := vals[key]
		if !ok {
			return fmt.Errorf("critpath: %q missing in %q", key, line)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("critpath: bad %s in %q: %v", key, line, err)
		}
		*pairs[i+1].(*int) = n
	}
	return nil
}

func parseTotals(line string, rep *Report) error {
	fields := strings.Fields(line)
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		var err error
		switch k {
		case "time":
			rep.Total, err = time.ParseDuration(v)
		case "retry":
			rep.RetryTime, err = time.ParseDuration(v)
		case "rebuild":
			rep.RebuildTime, err = time.ParseDuration(v)
		case "retries":
			rep.Retries, err = strconv.Atoi(v)
		case "adopts":
			rep.Adopts, err = strconv.Atoi(v)
		}
		if err != nil {
			return fmt.Errorf("critpath: bad %s in %q: %v", k, line, err)
		}
	}
	return nil
}

func parseGroup(line string) (*Group, error) {
	rest := strings.TrimPrefix(line, "group ")
	key, rest, err := unquotePrefix(rest)
	if err != nil {
		return nil, fmt.Errorf("critpath: bad group line %q: %v", line, err)
	}
	g := &Group{Key: key}
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "roots":
			g.Roots, err = strconv.Atoi(v)
		case "time":
			g.Time, err = time.ParseDuration(v)
		case "max":
			g.Max, err = time.ParseDuration(v)
		case "retry":
			g.RetryTime, err = time.ParseDuration(v)
		case "rebuild":
			g.RebuildTime, err = time.ParseDuration(v)
		case "retries":
			g.Retries, err = strconv.Atoi(v)
		case "adopts":
			g.Adopts, err = strconv.Atoi(v)
		case "mean":
			// Derived from Time/Roots; re-derived on write.
		}
		if err != nil {
			return nil, fmt.Errorf("critpath: bad %s in %q: %v", k, line, err)
		}
	}
	return g, nil
}

func parseKind(line string) (KindAttr, error) {
	fields := strings.Fields(strings.TrimPrefix(line, "  kind "))
	if len(fields) < 3 {
		return KindAttr{}, fmt.Errorf("critpath: bad kind line %q", line)
	}
	k := KindAttr{Name: fields[0]}
	var err error
	for _, f := range fields[1:] {
		key, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch key {
		case "time":
			k.Time, err = time.ParseDuration(v)
		case "segs":
			k.Segs, err = strconv.Atoi(v)
		case "share":
			// Derived from time/group time; re-derived on write.
		}
		if err != nil {
			return KindAttr{}, fmt.Errorf("critpath: bad %s in %q: %v", key, line, err)
		}
	}
	return k, nil
}

func parsePath(line string) (Path, error) {
	var p Path
	rest := strings.TrimPrefix(line, "path ")
	// Skip the ordinal.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[i+1:]
	}
	var err error
	for rest != "" {
		var f string
		if strings.HasPrefix(rest, "label=") || strings.HasPrefix(rest, "group=") {
			k, r, _ := strings.Cut(rest, "=")
			val, r2, uerr := unquotePrefix(r)
			if uerr != nil {
				return Path{}, fmt.Errorf("critpath: bad path line %q: %v", line, uerr)
			}
			if k == "label" {
				p.Label = val
			} else {
				p.Group = val
			}
			rest = strings.TrimLeft(r2, " ")
			continue
		}
		f, rest, _ = strings.Cut(rest, " ")
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "dur":
			p.Dur, err = time.ParseDuration(v)
			if err != nil {
				return Path{}, fmt.Errorf("critpath: bad dur in %q: %v", line, err)
			}
		case "chain":
			p.Chain, err = parseChain(v)
			if err != nil {
				return Path{}, fmt.Errorf("critpath: bad chain in %q: %v", line, err)
			}
		}
	}
	return p, nil
}

func parseChain(s string) ([]Hop, error) {
	if s == "" {
		return nil, nil // an empty chain writes as "chain="
	}
	var chain []Hop
	for _, hop := range strings.Split(s, "->") {
		i := strings.IndexByte(hop, '[')
		if i < 0 || !strings.HasSuffix(hop, "]") {
			return nil, fmt.Errorf("bad hop %q", hop)
		}
		d, err := time.ParseDuration(hop[i+1 : len(hop)-1])
		if err != nil {
			return nil, err
		}
		chain = append(chain, Hop{Name: hop[:i], Self: d})
	}
	return chain, nil
}

// unquotePrefix strips one leading Go-quoted string from s, returning
// the unquoted value and the remainder.
func unquotePrefix(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected quoted string at %q", s)
	}
	// Find the closing quote, honoring backslash escapes.
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			val, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return val, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string at %q", s)
}
