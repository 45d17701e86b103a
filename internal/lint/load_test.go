package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// TestLoadBuildConstrainedTwins: a package split into tag-disjoint twin
// files (the internal/testutil RaceEnabled pattern) must load exactly one
// of them — without constraint evaluation both parse and the const is a
// redeclaration. The loader analyzes the default build: the current
// platform, the gc toolchain and every release tag up to the running Go
// hold; feature tags (race, integration) and future releases do not.
func TestLoadBuildConstrainedTwins(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":        "module tagmod\n\ngo 1.22\n",
		"p/doc.go":      "// Package p is split across build-tagged twins.\npackage p\n",
		"p/race_on.go":  "//go:build race\n\npackage p\n\nconst RaceEnabled = true\n",
		"p/race_off.go": "//go:build !race\n\npackage p\n\nconst RaceEnabled = false\n",
		"p/other_os.go": "//go:build " + otherGOOS() + "\n\npackage p\n\nconst RaceEnabled = 3 // would redeclare if loaded\n",
		"p/future.go":   "//go:build go1.999\n\npackage p\n\nconst RaceEnabled = 4 // would redeclare if loaded\n",
		"p/feature.go":  "//go:build integration\n\npackage p\n\nconst RaceEnabled = 5 // would redeclare if loaded\n",
		"p/release.go":  "//go:build go1.18\n\npackage p\n\nconst Release = true\n",
		"p/platform.go": "//go:build gc && " + runtime.GOOS + " && " + runtime.GOARCH + "\n\npackage p\n\nconst Platform = true\n",
	}
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("tag-disjoint twins failed to load: %v", err)
	}
	var loaded []string
	for _, f := range p.Files {
		loaded = append(loaded, filepath.Base(l.Fset.File(f.Pos()).Name()))
	}
	if want := []string{"doc.go", "platform.go", "race_off.go", "release.go"}; !slices.Equal(loaded, want) {
		t.Fatalf("loaded %v, want %v", loaded, want)
	}
	if v := p.Types.Scope().Lookup("RaceEnabled"); v == nil || v.Type().String() != "untyped bool" {
		t.Errorf("RaceEnabled resolved to %v, want the untyped bool from race_off.go", v)
	}
}

// otherGOOS returns a GOOS that is not the current one, for a file the
// loader must skip.
func otherGOOS() string {
	if runtime.GOOS == "plan9" {
		return "windows"
	}
	return "plan9"
}
