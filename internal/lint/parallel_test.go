package lint

import (
	"path/filepath"
	"testing"
)

// loadTestdata loads the named testdata packages through the shared test
// loader, applying //eslurmlint:testpath overrides like the golden
// harness does.
func loadTestdata(t *testing.T, names ...string) []*Package {
	t.Helper()
	l := testLoader(t)
	var pkgs []*Package
	for _, n := range names {
		p, err := l.LoadDir(filepath.Join("testdata", "src", n))
		if err != nil {
			t.Fatalf("loading %s: %v", n, err)
		}
		if tp, ok := testPathOverride(p); ok {
			p.ImportPath = tp
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// mixedCasePkgs is a finding-rich spread: per-package analyzers,
// module-level analyzers (taint, randlabel across two packages),
// suppressions, and staleignore directives all participate, so an
// ordering bug anywhere in the parallel pipeline shows up as a diff.
func mixedCasePkgs(t *testing.T) []*Package {
	return loadTestdata(t,
		"walltime_bad", "detrand_bad", "maporder_bad",
		"taint_bad", "taint_suppressed", "floatsum_bad",
		"randlabel_a", "randlabel_b", "staleignore_bad", "staleignore_good",
	)
}

func findingStrings(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// TestRunParallelMatchesRun pins the driver contract: whatever the worker
// count, RunParallel's output is byte-identical to the serial reference
// pipeline.
func TestRunParallelMatchesRun(t *testing.T) {
	pkgs := mixedCasePkgs(t)
	want := findingStrings(Run(pkgs, Analyzers()))
	if len(want) == 0 {
		t.Fatal("mixed case produced no findings; the test would pass vacuously")
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got := findingStrings(RunParallel(pkgs, Analyzers(), RunOptions{Workers: workers}))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d findings, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: finding %d:\n got %s\nwant %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunParallelCache runs the same analysis twice against one cache
// directory: the first run misses and populates, the second is served
// entirely from cache, and both produce the reference output.
func TestRunParallelCache(t *testing.T) {
	pkgs := mixedCasePkgs(t)
	want := findingStrings(Run(pkgs, Analyzers()))
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := testLoader(t)
	opts := RunOptions{Workers: 4, Cache: cache, Lookup: l.Loaded}

	first := findingStrings(RunParallel(pkgs, Analyzers(), opts))
	hits, misses := cache.Stats()
	if hits != 0 || misses != int64(len(pkgs)) {
		t.Errorf("after first run: hits=%d misses=%d, want 0/%d", hits, misses, len(pkgs))
	}
	second := findingStrings(RunParallel(pkgs, Analyzers(), opts))
	hits, _ = cache.Stats()
	if hits != int64(len(pkgs)) {
		t.Errorf("after second run: hits=%d, want %d (every package cached)", hits, len(pkgs))
	}
	for name, got := range map[string][]string{"first": first, "second": second} {
		if len(got) != len(want) {
			t.Fatalf("%s run: %d findings, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s run: finding %d:\n got %s\nwant %s", name, i, got[i], want[i])
			}
		}
	}
}

// TestRunParallelCacheKeyError pins the fallback: a cache whose key
// derivation fails (nil lookup) silently degrades to a live run instead
// of dropping findings.
func TestRunParallelCacheKeyError(t *testing.T) {
	pkgs := loadTestdata(t, "detrand_bad")
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := RunParallel(pkgs, Analyzers(), RunOptions{Cache: cache, Lookup: nil})
	want := Run(pkgs, Analyzers())
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("nil-lookup run: %d findings, want %d (nonzero)", len(got), len(want))
	}
}
