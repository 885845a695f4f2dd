package sim

import (
	"errors"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		const n = 9
		ran := make([]int, n)
		if err := ForEach(n, workers, func(i int) error { ran[i]++; return nil }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range ran {
			if r != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, r)
			}
		}
	}
}

func TestForEachErrorsInIndexOrder(t *testing.T) {
	first, second := errors.New("first failure"), errors.New("second failure")
	for _, workers := range []int{1, 4} {
		err := ForEach(3, workers, func(i int) error {
			switch i {
			case 1:
				return first
			case 2:
				return second
			}
			return nil
		})
		if err != first {
			t.Fatalf("workers=%d: err = %v, want the index-1 failure", workers, err)
		}
	}
	// One worker stops at the first failure.
	ran := 0
	_ = ForEach(3, 1, func(i int) error { ran++; return first })
	if ran != 1 {
		t.Fatalf("sequential ForEach ran %d calls after a failure, want 1", ran)
	}
}
