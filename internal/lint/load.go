package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Loader type-checks packages of one Go module using only the standard
// library. Module-local imports are resolved by mapping import paths onto
// directories under the module root and loading them recursively; standard
// library imports fall back to the source importer, which reads GOROOT/src
// directly and therefore needs no pre-built export data.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package // by import path, fully loaded
	loading map[string]bool     // cycle guard
}

// NewLoader creates a loader rooted at the directory containing go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Import implements types.Importer so the type checker can resolve the
// dependencies of whatever package is being checked.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the (non-test) package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath := l.importPathFor(dir)
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type errors: %v", importPath, typeErrs[0])
	}

	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// importPathFor maps a directory inside the module to its import path.
// Directories outside the module root (which should not occur in normal
// use) fall back to the raw directory path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// LoadPatterns resolves CLI package patterns into loaded packages. Each
// pattern is a directory, optionally ending in "/..." to include every
// package underneath it. Directories named testdata or vendor and hidden
// or underscore-prefixed directories are skipped during recursive walks
// (but an explicitly named directory is always loaded, so fixtures can be
// linted directly in tests).
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	addDir := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := rest
			if root == "" || root == "." {
				root = "."
			}
			absRoot, err := filepath.Abs(root)
			if err != nil {
				return nil, err
			}
			if _, err := os.Stat(absRoot); err != nil {
				return nil, fmt.Errorf("pattern %s: %w", pat, err)
			}
			err = filepath.WalkDir(absRoot, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := filepath.Base(path)
				if path != absRoot && (base == "testdata" || base == "vendor" ||
					strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
					return filepath.SkipDir
				}
				if names, err := goFilesIn(path); err == nil && len(names) > 0 {
					addDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			if st, err := os.Stat(pat); err != nil {
				return nil, fmt.Errorf("pattern %s: %w", pat, err)
			} else if !st.IsDir() {
				return nil, fmt.Errorf("pattern %s: not a directory", pat)
			}
			addDir(pat)
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goFilesIn lists the buildable non-test Go files in dir, honoring
// //go:build constraints so tag-disjoint twins (race_on.go/race_off.go)
// do not collide as redeclarations.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !buildConstraintOK(filepath.Join(dir, name)) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// buildConstraintOK evaluates the file's //go:build line (if any) for the
// loader's context: current GOOS/GOARCH, the gc toolchain, and every
// release tag up to the running version. Feature tags like "race" are
// false — the loader analyzes the default build, same as `go build`
// without extra tags. Files without a constraint, and files whose
// constraint fails to parse (the compiler will report those properly),
// are included.
func buildConstraintOK(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return true
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				return true
			}
			return expr.Eval(buildTagMatches)
		}
		// The constraint must precede the package clause; stop there.
		if strings.HasPrefix(line, "package ") {
			return true
		}
	}
	return true
}

func buildTagMatches(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "illumos", "aix":
			return true
		}
		return false
	}
	if rest, ok := strings.CutPrefix(tag, "go1."); ok {
		tagMinor, err := strconv.Atoi(rest)
		if err != nil {
			return false
		}
		cur := strings.TrimPrefix(runtime.Version(), "go1.")
		if i := strings.IndexByte(cur, '.'); i >= 0 {
			cur = cur[:i]
		}
		curMinor, err := strconv.Atoi(cur)
		return err == nil && tagMinor <= curMinor
	}
	return false
}
