package experiments

import "ssnkit/internal/par"

// parMap evaluates fn over items on par.For and collects the results in
// input order, so a parallel sweep emits byte-identical artifacts to the
// serial loop it replaces. workers <= 0 means GOMAXPROCS. Every item runs
// even when an earlier one fails; the error reported is the one with the
// lowest index, which keeps failures deterministic under any schedule.
//
// Each fn call must be self-contained (the experiment points build their own
// circuit and engine), sharing only read-only inputs.
func parMap[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, nil
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	par.For(len(items), workers, func(int) func(int) {
		return func(i int) { results[i], errs[i] = fn(i, items[i]) }
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
