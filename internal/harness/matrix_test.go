package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestMatrixOrder asserts that rows come back in index order for every
// worker count, including the GOMAXPROCS default and pools larger than n.
func TestMatrixOrder(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		want := make([]string, n)
		for i := range want {
			want[i] = fmt.Sprintf("row-%d", i)
		}
		for _, workers := range []int{0, 1, 2, 8} {
			got, err := Matrix(workers, n, func(i int) (string, error) {
				return fmt.Sprintf("row-%d", i), nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d workers=%d: rows %q, want %q", n, workers, got, want)
			}
		}
	}
}

// TestMatrixCellPanic asserts that a panicking cell becomes an error naming
// that cell while every other cell still runs and fills its row.
func TestMatrixCellPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		rows, err := Matrix(workers, 5, func(i int) (int, error) {
			if i == 3 {
				panic("boom")
			}
			return 10 + i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell 3: panic: boom") {
			t.Fatalf("workers=%d: error %v, want one naming cell 3", workers, err)
		}
		if want := []int{10, 11, 12, 0, 14}; !reflect.DeepEqual(rows, want) {
			t.Errorf("workers=%d: rows %v, want %v", workers, rows, want)
		}
	}
}

// TestMatrixJoinsErrors asserts that every failing cell's error is reported,
// in index order, and that a failing cell keeps the row it returned.
func TestMatrixJoinsErrors(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	rows, err := Matrix(2, 4, func(i int) (int, error) {
		switch i {
		case 0:
			return -1, errA
		case 2:
			return -2, errB
		}
		return i, nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("error %v, want both cell errors joined", err)
	}
	if err.Error() != "a\nb" {
		t.Errorf("error text %q, want the cell errors in index order", err.Error())
	}
	if want := []int{-1, 1, -2, 3}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %v, want %v", rows, want)
	}
}
