package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEveryIndexOnce checks, for every worker count including the
// GOMAXPROCS default, that each index runs exactly once and that each
// worker's S stays its own. The first min(workers, n) indices wait for one
// another, so each is held by its own worker at the same moment: there must
// be exactly that many S values, their indices must partition [0, n), and a
// shared S would also be a data race under -race.
func TestForRunsEveryIndexOnce(t *testing.T) {
	type state struct {
		seen []int
	}
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 3, 64} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				k := workers
				if k <= 0 {
					k = runtime.GOMAXPROCS(0)
				}
				k = min(k, n)
				var together sync.WaitGroup
				together.Add(k)
				var mu sync.Mutex
				var states []*state
				if err := For(n, workers, func(s *state, i int) error {
					if s.seen == nil {
						mu.Lock()
						states = append(states, s)
						mu.Unlock()
					}
					s.seen = append(s.seen, i)
					if i < k {
						together.Done()
						together.Wait()
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if len(states) != k {
					t.Errorf("%d per-worker states, want %d", len(states), k)
				}
				runs := make([]int, n)
				for _, s := range states {
					for j, i := range s.seen {
						runs[i]++
						// A worker claims the lowest index not yet claimed,
						// so each one sees its indices in increasing order.
						if j > 0 && i <= s.seen[j-1] {
							t.Errorf("a worker ran index %d after %d", i, s.seen[j-1])
						}
					}
				}
				for i, r := range runs {
					if r != 1 {
						t.Errorf("index %d ran %d times", i, r)
					}
				}
			})
		}
	}
}

// TestForFirstErrorInIndexOrder fails indices 2 and 5, with index 2 held
// until index 5 has failed whenever a second worker can reach it: For must
// still return index 2's error, the one a serial loop meets.
func TestForFirstErrorInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		fiveFailed := make(chan struct{})
		err := For(8, workers, func(_ *struct{}, i int) error {
			switch i {
			case 2:
				if workers > 1 {
					<-fiveFailed
				}
				return fmt.Errorf("index %d", i)
			case 5:
				close(fiveFailed)
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 2" {
			t.Errorf("workers %d: error %v, want index 2's", workers, err)
		}
	}
}

// TestForStopsClaimingAfterError fails index 0 while the other workers are
// each inside one index: those finish, and no index past them is claimed.
// With one worker nothing after the failing index runs at all.
func TestForStopsClaimingAfterError(t *testing.T) {
	errStop := errors.New("stop")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		var started sync.WaitGroup
		started.Add(workers - 1)
		release := make(chan struct{})
		err := For(100, workers, func(_ *struct{}, i int) error {
			ran.Add(1)
			if i == 0 {
				// Every other worker holds an index before index 0 fails.
				// They are let go once For has recorded the failure, which
				// it does after do returns, at no event a test can wait
				// on: 100 ms is the allowance for that one store.
				started.Wait()
				time.AfterFunc(100*time.Millisecond, func() { close(release) })
				return errStop
			}
			if i < workers {
				started.Done()
			}
			<-release
			return nil
		})
		if !errors.Is(err, errStop) {
			t.Errorf("workers %d: error %v, want %v", workers, err, errStop)
		}
		if got := ran.Load(); got != int64(workers) {
			t.Errorf("workers %d: %d indices ran, want the %d in flight when index 0 failed", workers, got, workers)
		}
	}
}

// TestForDefaultFollowsGOMAXPROCS: with workers 0 under GOMAXPROCS 1, at
// most one do runs at a time — a "one core" run really is one worker.
func TestForDefaultFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var active, peak atomic.Int64
	if err := For(50, 0, func(_ *struct{}, i int) error {
		cur := active.Add(1)
		if cur > peak.Load() {
			peak.Store(cur)
		}
		runtime.Gosched() // give any second worker its chance to overlap
		time.Sleep(100 * time.Microsecond)
		active.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d calls of do overlapped at GOMAXPROCS 1, want 1", p)
	}
}
