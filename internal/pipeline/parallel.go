package pipeline

import (
	"sync"
	"sync/atomic"
)

// forEachLimited runs fn(i) for every i in [0, n) on at most
// parallelism goroutines. After the first failure workers stop
// claiming new items, and once in-flight items finish the error for
// the lowest failed index is returned. Items are claimed in index
// order, so every item below a failed one has run, and the returned
// error is the one a serial loop would stop at. With parallelism 1 the
// items run on the calling goroutine in index order.
func forEachLimited(n, parallelism int, fn func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64 // next unclaimed index
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, n) // each worker writes only its own index
	)
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
