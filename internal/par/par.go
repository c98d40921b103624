// Package par is the repository's one worker pool. Every parallel stage —
// the block scan, the model fit and generation, predictor scoring, the
// testbed's machines, the contention sweeps, the load driver's requests
// and the broker's shard fan-out — has the shape "run do(i) for i in
// [0, n) on k workers", and runs it through For.
package par

import (
	"cmp"
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls do for every index of [0, n) on min(workers, n) goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0)), each with its own S and
// claiming the lowest index not yet claimed; one worker is the serial loop.
// After an error none is claimed; every lower index was claimed before and
// finishes, so the error returned, the first in index order, is the one a
// serial loop meets.
func For[S any](n, workers int, do func(s *S, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var claimed atomic.Int64
	var failed atomic.Bool
	errs := make([]error, n)
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			for !failed.Load() {
				i := int(claimed.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = do(&s, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}
