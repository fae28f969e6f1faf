// Package pool provides the bounded work-claiming loop under the
// evaluation unit engine and the sweep's preparation phase: a fixed set
// of indexed units fanned across a capped number of goroutines, with
// early stop on the first error or context cancellation, serialized
// completion callbacks and per-unit panic containment.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Run executes fn(i) for every i in [0, total) on min(workers, total)
// goroutines (at least one). Units are claimed in index order but may
// complete in any order; after the first unit returns an error no new
// units are claimed (units already claimed still finish). onDone, when
// non-nil, is invoked after each completed unit with the unit's index,
// the in-order completion count and the unit's error; calls are
// serialized. Run returns when every claimed unit has finished.
func Run(total, workers int, fn func(i int) error, onDone func(i, completed int, err error)) {
	RunContext(context.Background(), total, workers, fn, onDone)
}

// RunContext is Run with cancellation: once ctx is done, no new units
// are claimed (units already claimed still finish, so shared state
// stays consistent) and ctx.Err() is returned. A nil error means every
// unit was claimed; individual unit errors are reported through fn's
// return value and onDone, exactly as in Run.
//
// A panicking fn(i) does not take the process down: it becomes unit
// i's error ("pool: unit i panicked: ..." plus the goroutine stack),
// which stops new claims like any other unit error.
func RunContext(ctx context.Context, total, workers int, fn func(i int) error, onDone func(i, completed int, err error)) error {
	if total <= 0 {
		return ctx.Err()
	}
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next      atomic.Int64
		stop      atomic.Bool
		mu        sync.Mutex
		completed int
		wg        sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= total || stop.Load() {
					return
				}
				err := call(fn, i)
				if err != nil {
					stop.Store(true)
				}
				if onDone != nil {
					mu.Lock()
					completed++
					onDone(i, completed, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// call runs fn(i), recovering a panic into the unit's error.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: unit %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}
