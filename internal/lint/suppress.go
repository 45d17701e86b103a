package lint

import (
	"go/token"
	"sort"
	"strings"
)

// A suppression silences findings of one analyzer on the directive's own
// line and on the line immediately below it (so it can ride at the end of
// the offending line or stand alone above it). One directive may name
// several analyzers separated by commas:
//
//	//eslurmlint:ignore walltime,taint host-side progress timestamp, never reaches the engine
//
// Each named analyzer becomes its own suppression entry; the staleignore
// analyzer judges every entry independently, so a half-stale directive is
// still reported.
type suppression struct {
	file     string
	line     int
	analyzer string
}

// supEntry is the mutable per-directive state behind a suppression key:
// where the directive sits (for staleignore reporting) and whether it
// actually silenced a finding during this run.
type supEntry struct {
	pos  token.Position
	used bool
}

type suppressionSet map[suppression]*supEntry

// covers reports whether a suppression silences the finding, and marks
// the matching directive as load-bearing for the staleignore pass.
func (s suppressionSet) covers(f Finding) bool {
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		if e, ok := s[suppression{f.Pos.Filename, line, f.Analyzer}]; ok {
			e.used = true
			return true
		}
	}
	return false
}

// unused returns the suppression keys of directives that silenced
// nothing, restricted to analyzers in enabled (a directive for an
// analyzer that did not run this invocation cannot be judged stale).
// Entries for staleignore itself are excluded: they are consumed by the
// staleignore pass's own filtering, one level deep by design.
func (s suppressionSet) unused(enabled map[string]bool) []suppression {
	var keys []suppression
	for k, e := range s {
		if !e.used && k.analyzer != "staleignore" && enabled[k.analyzer] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.analyzer < b.analyzer
	})
	return keys
}

// collectSuppressions scans every comment in the package for
// //eslurmlint:ignore directives. A directive must name known analyzers
// (comma-separated) and give a non-empty reason; anything else is
// reported as a finding of the pseudo-analyzer "suppress" so typos cannot
// silently disable the gate. The harness-only //eslurmlint:testpath
// directive is tolerated.
func collectSuppressions(p *Package, known map[string]bool) (suppressionSet, []Finding) {
	sups := make(suppressionSet)
	var malformed []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "eslurmlint:")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					malformed = append(malformed, Finding{pos, "suppress", "empty eslurmlint directive"})
					continue
				}
				switch fields[0] {
				case "ignore":
					names, allKnown := splitAnalyzerList(fields, known)
					if !allKnown {
						malformed = append(malformed, Finding{pos, "suppress",
							"eslurmlint:ignore must name known analyzers (" + strings.Join(AnalyzerNames(), ", ") + "), comma-separated"})
						continue
					}
					if len(fields) < 3 {
						malformed = append(malformed, Finding{pos, "suppress",
							"eslurmlint:ignore " + fields[1] + " needs a reason explaining why the site is safe"})
						continue
					}
					for _, name := range names {
						key := suppression{pos.Filename, pos.Line, name}
						if sups[key] == nil {
							sups[key] = &supEntry{pos: pos}
						}
					}
				case "testpath":
					// Harness-only package-path override; inert in production runs.
				default:
					malformed = append(malformed, Finding{pos, "suppress",
						"unknown eslurmlint directive " + fields[0]})
				}
			}
		}
	}
	return sups, malformed
}

// splitAnalyzerList parses the comma-separated analyzer list of an ignore
// directive (fields[1]). It reports ok=false when the list is missing,
// has empty elements ("a,,b" or a trailing comma), or names an unknown
// analyzer.
func splitAnalyzerList(fields []string, known map[string]bool) ([]string, bool) {
	if len(fields) < 2 {
		return nil, false
	}
	names := strings.Split(fields[1], ",")
	for _, name := range names {
		if name == "" || !known[name] {
			return nil, false
		}
	}
	return names, true
}

// testPathOverride returns the //eslurmlint:testpath value, if any. The
// golden-file harness uses it to exercise path-scoped rules (walltime's
// internal-only scope, detrand's simnet exemption) from testdata packages
// whose real paths all live under internal/lint/testdata.
func testPathOverride(p *Package) (string, bool) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if rest, ok := strings.CutPrefix(text, "eslurmlint:testpath"); ok {
					return strings.TrimSpace(rest), true
				}
			}
		}
	}
	return "", false
}
