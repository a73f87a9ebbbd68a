package workpool

import "testing"

// Every index runs exactly once, whatever the job count relative to
// the worker count, and ForEach returns only after the last job.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		hits := make([]int, n)
		ForEach(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}
