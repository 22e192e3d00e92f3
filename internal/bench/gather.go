package bench

import "sync"

// Gather is the deterministic scatter/gather runner behind every
// experiment's cell parallelism, here and in packages that layer
// their own experiment matrices over this one (the suite registry's
// runner). It evaluates job(0) .. job(n-1) on up to `workers`
// goroutines and returns the results in index order, with the
// lowest-index error (if any) winning.
//
// The determinism contract (DESIGN.md Sec. 8): every job must be a
// pure function of its index — it derives its seeds from the index
// (or from per-cell RunSpec fields), builds all mutable simulator
// state fresh, and shares only immutable machine description plus
// mutex-guarded caches whose contents are keyed purely by seed. Under
// that contract the scatter order is irrelevant and the gather order
// is fixed by index, so any workers value — including 1 — produces
// byte-identical results; parallelism only spends more host cores.
func Gather[T any](n, workers int, job func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = job(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i], errs[i] = job(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
