// Package workpool runs independent jobs on a worker pool sized to the
// machine. The sweep drivers (routing, faults, reliable, adaptive) fan
// their load points out through it; each job writes only its own
// result slot, so output order and content do not depend on scheduling.
package workpool

import (
	"runtime"
	"sync"
)

// ForEach calls f(i) for every i in [0, n) on min(GOMAXPROCS, n)
// worker goroutines and returns once every call has returned.
func ForEach(n int, f func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
