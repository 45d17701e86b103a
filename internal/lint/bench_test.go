package lint

import "testing"

// BenchmarkSweep times one full analyzer sweep — every registered
// analyzer over every package — of the repo's own source tree. Loading
// and type-checking happen once outside the timer: the benchmark isolates
// analysis cost, which is what a new or changed analyzer moves. CI runs
// it with -benchtime=1x as a smoke (the pass must complete over the live
// tree), and perf work can run it with real benchtimes to compare
// analysis throughput.
func BenchmarkSweep(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		b.Fatal(err)
	}
	if len(pkgs) == 0 {
		b.Fatal("no packages loaded")
	}
	analyzers := Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings := Run(pkgs, analyzers)
		// The tree is kept lint-clean, so a non-empty result here means
		// the benchmark ran against a broken tree; fail loudly rather
		// than time a different workload.
		if len(findings) != 0 {
			b.Fatalf("tree not lint-clean: %d finding(s), first: %s", len(findings), findings[0])
		}
	}
}
