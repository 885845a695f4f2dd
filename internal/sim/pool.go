package sim

import "sync"

// ForEach calls f(i) for every i in [0, n) on min(workers, n) goroutines,
// handing out indices in ascending order, and returns the first non-nil
// error in index order, so failures are as deterministic as results. With
// workers <= 1 the calls run in index order on the calling goroutine and
// stop at the first error. Each f(i) must confine its writes to state that
// index i owns.
func ForEach(n, workers int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
