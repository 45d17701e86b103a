package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
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

// LoadDir parses and type-checks the (non-test) package in dir. go/build
// picks its files for the default build: this platform, the gc toolchain
// and every release up to the running Go, but no feature tag such as race,
// so tag-disjoint twins (race_on.go/race_off.go) load one of the two.
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

	bp, err := build.Default.ImportDir(dir, 0)
	if err == nil && len(bp.GoFiles) == 0 {
		err = fmt.Errorf("%s: no non-test Go files", dir)
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
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

// LoadModule loads every package of the module, in directory order.
// Directories named testdata or vendor and hidden or underscore-prefixed
// directories are skipped, as the go tool skips them; LoadDir still loads
// a fixture under testdata when named explicitly.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := filepath.Base(path)
		if path != l.ModuleRoot && (base == "testdata" || base == "vendor" ||
			strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || err == nil && len(bp.GoFiles) == 0 {
			return nil // no package here, or only tests (the module root)
		}
		dirs = append(dirs, path)
		return err
	})
	if err != nil {
		return nil, err
	}
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
