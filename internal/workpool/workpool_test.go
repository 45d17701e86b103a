package workpool

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestOrderedEmpty(t *testing.T) {
	calls := 0
	got := Ordered(0, 4, func(int) int { calls++; return 0 }, func(int) { calls++ })
	if len(got) != 0 || calls != 0 {
		t.Fatalf("n=0: %d results, %d calls; want none", len(got), calls)
	}
}

// TestOrderedEmitsEachIndexOnceInOrder runs more tasks than workers,
// fewer, equal, and with workers < 1 (GOMAXPROCS): every index is run
// once, emitted once in index order, and returned at its index.
func TestOrderedEmitsEachIndexOnceInOrder(t *testing.T) {
	const n = 37
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, n, n + 5} {
		t.Run(strconv.Itoa(workers), func(t *testing.T) {
			ran := make([]int, n) // each index written by one worker only
			var emitted []int
			got := Ordered(n, workers, func(i int) int { ran[i]++; return i * i }, func(v int) { emitted = append(emitted, v) })
			if !slices.Equal(got, want) {
				t.Errorf("results %v, want %v", got, want)
			}
			if !slices.Equal(emitted, want) {
				t.Errorf("emitted %v, want %v", emitted, want)
			}
			for i, c := range ran {
				if c != 1 {
					t.Errorf("task %d ran %d times", i, c)
				}
			}
		})
	}
}

// TestOrderedWorkerCount: workers > n runs n tasks at once, and
// workers < 1 runs GOMAXPROCS (capped at n). Each task waits until the
// expected number are in flight, so a pool with too few goroutines times
// out, and the in-flight peak bounds it from above.
func TestOrderedWorkerCount(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{3, 10, 3},
		{64, 0, min(64, runtime.GOMAXPROCS(0))},
		{64, -3, min(64, runtime.GOMAXPROCS(0))},
	} {
		var mu sync.Mutex
		active, peak, arrived := 0, 0, 0
		release := make(chan struct{})
		deadline := time.Now().Add(10 * time.Second)
		timedOut := false
		Ordered(tc.n, tc.workers, func(int) int {
			mu.Lock()
			active++
			peak = max(peak, active)
			if arrived++; arrived == tc.want {
				close(release)
			}
			mu.Unlock()
			select {
			case <-release:
			case <-time.After(time.Until(deadline)):
				mu.Lock()
				timedOut = true
				mu.Unlock()
			}
			mu.Lock()
			active--
			mu.Unlock()
			return 0
		}, nil)
		if timedOut || peak != tc.want {
			t.Errorf("n=%d workers=%d: %d tasks in flight at peak (timed out: %t), want %d", tc.n, tc.workers, peak, timedOut, tc.want)
		}
	}
}

// concurrencySites lists every go statement, channel type, channel
// operation and sync or sync/atomic import in f.
func concurrencySites(fset *token.FileSet, f *ast.File) []string {
	var out []string
	at := func(n ast.Node, what string) {
		out = append(out, fset.Position(n.Pos()).String()+": "+what)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
			at(imp, "imports "+path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			at(x, "go statement")
		case *ast.ChanType:
			at(x, "chan type")
		case *ast.SendStmt, *ast.SelectStmt:
			at(x, "channel operation")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				at(x, "channel receive")
			}
		}
		return true
	})
	return out
}

// TestOnlyConcurrencySite: the worker pool in workpool.go is the only
// place in non-test code under internal/, cmd/ and examples/ that starts
// a goroutine, names a channel or imports sync. Anything else runs on one
// goroutine, which is what makes an engine's trace a function of its seed.
func TestOnlyConcurrencySite(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var violations, pool []string
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if rel == "internal/workpool/workpool.go" {
				pool = concurrencySites(fset, f)
			} else {
				violations = append(violations, concurrencySites(fset, f)...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pool) == 0 {
		t.Fatal("the scan found no concurrency in internal/workpool/workpool.go: it missed the module tree or the pool")
	}
	for _, v := range violations {
		t.Errorf("%s: concurrency belongs in internal/workpool (run independent tasks through workpool.Ordered)", v)
	}
}

// TestConcurrencyScanFlagsPlantedSites shows the scan is not vacuous: a
// go statement, a chan type, a channel operation and both sync imports
// planted in one file are each reported.
func TestConcurrencyScanFlagsPlantedSites(t *testing.T) {
	const src = `package planted

import (
	"sync"
	"sync/atomic"
)

var n atomic.Int64

func F(mu *sync.Mutex) {
	c := make(chan int)
	go func() { c <- 1 }()
	<-c
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "planted.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(concurrencySites(fset, f), "\n")
	want := strings.Join([]string{
		"planted.go:4:2: imports sync",
		"planted.go:5:2: imports sync/atomic",
		"planted.go:11:12: chan type",
		"planted.go:12:2: go statement",
		"planted.go:12:14: channel operation",
		"planted.go:13:2: channel receive",
	}, "\n")
	if got != want {
		t.Errorf("planted sites:\n%s\nwant:\n%s", got, want)
	}
}
