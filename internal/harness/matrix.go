package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Matrix runs cell(i) for every i in [0, n) on a pool of worker goroutines
// and returns the n rows in index order. It is the only concurrency in the
// harness: every experiment is a list of independent cells, each on its own
// simulated machine, so the rows — and therefore every table and artifact —
// are identical for any worker count; parallelism changes only wall-clock
// time.
//
// workers <= 0 means one worker per GOMAXPROCS, and the pool never exceeds
// n. A cell's panic is recovered into an error naming the cell. The errors
// of all failing cells are joined in index order while the remaining cells
// still run; a failing cell's row holds whatever it returned (the zero Row
// after a panic).
func Matrix[Row any](workers, n int, cell func(i int) (Row, error)) ([]Row, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	rows := make([]Row, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct cells write distinct elements, so no further
			// synchronization is needed beyond the WaitGroup.
			for i := range jobs {
				rows[i], errs[i] = runCell(i, cell)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return rows, errors.Join(errs...)
}

// runCell calls cell(i), converting a panic into an error.
func runCell[Row any](i int, cell func(int) (Row, error)) (row Row, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: cell %d: panic: %v", i, p)
		}
	}()
	return cell(i)
}
