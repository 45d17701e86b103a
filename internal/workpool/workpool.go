// Package workpool is the module's only concurrency: a fixed set of
// goroutines running independent tasks, with results handed back in
// index order. The determinism contract (same seed ⇒ same trace) holds
// because every simulation engine runs on one goroutine; parallelism
// exists only across independent runs, each with its own engines and
// seeds. A task shares nothing with another task, and emit sees results
// in index order on the caller's goroutine, so output built from emit is
// byte-identical at any worker count. TestOnlyConcurrencySite keeps every
// go statement, channel and sync import in this file.
package workpool

import (
	"runtime"
	"sync"
)

// Workers is how many goroutines Ordered runs n tasks on when asked for
// workers: min(workers, n), where workers < 1 means GOMAXPROCS.
func Workers(n, workers int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Ordered runs task(0) … task(n-1) on Workers(n, workers) goroutines and
// returns the results indexed like the tasks. emit, when non-nil, is
// called on the caller's goroutine once per result, in index order, as
// soon as the ordered prefix is complete.
func Ordered[T any](n, workers int, task func(i int) T, emit func(T)) []T {
	workers = Workers(n, workers)
	results := make([]T, n)
	done := make([]chan struct{}, n)
	next := make(chan int, n)
	for i := range done {
		done[i] = make(chan struct{})
		next <- i
	}
	close(next)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = task(i)
				close(done[i])
			}
		}()
	}
	for i := range done {
		<-done[i]
		if emit != nil {
			emit(results[i])
		}
	}
	wg.Wait()
	return results
}
