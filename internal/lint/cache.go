package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
)

// cacheSchema is folded into every cache key. It is derived from the
// shared SchemaVersion const, so a schema bump — a payload layout
// change (the generation component; v2 widened the payload from raw
// findings to the full pkgResult unit, v7 removed the flow-sensitive
// passes) or a registered analyzer (the count component) — invalidates
// every prior entry and stale results can never be replayed.
const cacheSchema = "eslurmlint-cache-v" + SchemaVersion

// Cache is a content-addressed store of per-package results. The key for
// a package hashes the analyzer set, the toolchain version, and the full
// file contents of the package plus every module-local package it
// transitively imports — a change anywhere in the dependency closure
// (which can change type information and therefore findings) invalidates
// the entry, while an untouched closure hits no matter which other
// packages changed. Entries are one JSON file per key, so the cache
// directory is safe to share between runs and trivially prunable.
//
// The payload is the complete pkgResult: the per-package findings that
// survived the package's own suppressions, the malformed-directive
// findings, and every directive's position and used flag. Replaying the
// used flags is what keeps staleignore honest after a warm-cache run — a
// hit that restored findings but not directive usage would make every
// load-bearing directive in the package look stale. Module-level
// analyzers (taint, randlabel, engineown, globalmut) and the staleignore
// pass itself always run live in assemble: their inputs span packages,
// so a per-package key cannot witness them.
type Cache struct {
	Dir string

	hits, misses atomic.Int64
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{Dir: dir}, nil
}

// Stats reports the hit/miss counts accumulated since the cache was
// opened, for the CLI's -v accounting and the cache tests.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Key derives the content-hash cache key for p under the given analyzer
// set. lookup resolves module-local import paths to loaded packages (use
// (*Loader).Loaded); it is how the key reaches p's dependency closure.
func (c *Cache) Key(p *Package, analyzers []*Analyzer, lookup func(importPath string) *Package) (string, error) {
	if lookup == nil {
		return "", fmt.Errorf("cache key for %s: nil package lookup", p.ImportPath)
	}
	h := sha256.New()
	fmt.Fprintln(h, cacheSchema, runtime.Version())
	for _, a := range analyzers {
		fmt.Fprintln(h, a.Name)
	}
	for _, q := range depClosure(p, lookup) {
		fmt.Fprintln(h, q.ImportPath)
		names, err := goFilesIn(q.Dir)
		if err != nil {
			return "", err
		}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(q.Dir, name))
			if err != nil {
				return "", err
			}
			fmt.Fprintln(h, name, len(data))
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// depClosure returns p plus every module-local package it transitively
// imports, sorted by import path so the key hash is order-independent.
func depClosure(p *Package, lookup func(string) *Package) []*Package {
	seen := map[string]*Package{p.ImportPath: p}
	var visit func(q *Package)
	visit = func(q *Package) {
		for _, imp := range q.Types.Imports() {
			if seen[imp.Path()] != nil {
				continue
			}
			dep := lookup(imp.Path())
			if dep == nil {
				continue // stdlib: covered by the toolchain version in the key
			}
			seen[imp.Path()] = dep
			visit(dep)
		}
	}
	visit(p)
	paths := make([]string, 0, len(seen))
	for path := range seen {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, path := range paths {
		out[i] = seen[path]
	}
	return out
}

// cachedFinding is the on-disk form of one Finding. Positions are stored
// absolute: the cache key already pins the machine-local file contents,
// so entries are machine-local by construction.
type cachedFinding struct {
	File     string `json:"file"`
	Offset   int    `json:"offset"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// cachedDirective is the on-disk form of one directiveState. Used is the
// part a findings-only payload would lose: whether the directive silenced
// a per-package finding during the run that populated the entry.
type cachedDirective struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Offset   int    `json:"offset"`
	Analyzer string `json:"analyzer"`
	Used     bool   `json:"used,omitempty"`
}

// cachedUnit is the full v2 payload: one serialized pkgResult.
type cachedUnit struct {
	Findings   []cachedFinding   `json:"findings"`
	Malformed  []cachedFinding   `json:"malformed,omitempty"`
	Directives []cachedDirective `json:"directives,omitempty"`
}

func toCachedFindings(fs []Finding) []cachedFinding {
	out := make([]cachedFinding, len(fs))
	for i, f := range fs {
		out[i] = cachedFinding{
			File:     f.Pos.Filename,
			Offset:   f.Pos.Offset,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		}
	}
	return out
}

func fromCachedFindings(entries []cachedFinding) []Finding {
	if len(entries) == 0 {
		return nil
	}
	out := make([]Finding, len(entries))
	for i, e := range entries {
		out[i] = Finding{
			Pos:      token.Position{Filename: e.File, Offset: e.Offset, Line: e.Line, Column: e.Column},
			Analyzer: e.Analyzer,
			Message:  e.Message,
		}
	}
	return out
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.Dir, key+".json")
}

// Get returns the cached per-package result for key, distinguishing an
// empty result (hit with zero findings) from a miss.
func (c *Cache) Get(key string) (*pkgResult, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var unit cachedUnit
	if err := json.Unmarshal(data, &unit); err != nil {
		c.misses.Add(1) // corrupt entry: treat as miss, a Put will overwrite it
		return nil, false
	}
	res := &pkgResult{
		findings:  fromCachedFindings(unit.Findings),
		malformed: fromCachedFindings(unit.Malformed),
	}
	for _, d := range unit.Directives {
		res.directives = append(res.directives, directiveState{
			key:  suppression{file: d.File, line: d.Line, analyzer: d.Analyzer},
			pos:  token.Position{Filename: d.File, Offset: d.Offset, Line: d.Line, Column: d.Column},
			used: d.Used,
		})
	}
	c.hits.Add(1)
	return res, true
}

// Put stores a per-package result under key. The write goes through a
// temp file and rename so concurrent workers (or runs) never observe a
// torn entry.
func (c *Cache) Put(key string, res *pkgResult) error {
	unit := cachedUnit{
		Findings:  toCachedFindings(res.findings),
		Malformed: toCachedFindings(res.malformed),
	}
	for _, d := range res.directives {
		unit.Directives = append(unit.Directives, cachedDirective{
			File:     d.key.file,
			Line:     d.key.line,
			Column:   d.pos.Column,
			Offset:   d.pos.Offset,
			Analyzer: d.key.analyzer,
			Used:     d.used,
		})
	}
	data, err := json.Marshal(unit)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.Dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}
