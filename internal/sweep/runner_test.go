package sweep

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func numberedCells(t *testing.T, n int) []Cell {
	t.Helper()
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprint(i)
	}
	g := mustGrid(t, Axis{Name: "i", Values: values})
	return g.Cells()
}

func TestSweepSkipReasons(t *testing.T) {
	cells := numberedCells(t, 10)
	ran := make([]bool, 10)
	r := &Runner{
		Check: func(c Cell) string {
			if i, _ := c.Int("i"); i%2 == 1 {
				return "odd-cells-invalid"
			}
			return ""
		},
		Run: func(c Cell) (any, error) {
			i, _ := c.Int("i")
			ran[i] = true
			return nil, nil
		},
	}
	var skips []int
	measured, skipped, failed := r.Sweep(cells, func(res Result) {
		if res.Skip != "" {
			if res.Skip != "odd-cells-invalid" {
				t.Errorf("cell %d: skip = %q", res.Cell.Index, res.Skip)
			}
			skips = append(skips, res.Cell.Index)
		}
	})
	if measured != 5 || skipped != 5 || failed != 0 {
		t.Fatalf("counts = %d/%d/%d", measured, skipped, failed)
	}
	for _, i := range skips {
		if ran[i] {
			t.Errorf("skipped cell %d was run anyway", i)
		}
	}
}

func TestSweepPanicRecovery(t *testing.T) {
	cells := numberedCells(t, 4)
	r := &Runner{
		Run: func(c Cell) (any, error) {
			if i, _ := c.Int("i"); i == 2 {
				panic("construction deadlocked an invariant")
			}
			return "ok", nil
		},
	}
	var failures []Result
	measured, skipped, failed := r.Sweep(cells, func(res Result) {
		if res.Err != nil {
			failures = append(failures, res)
		}
	})
	if measured != 3 || skipped != 0 || failed != 1 {
		t.Fatalf("counts = %d/%d/%d", measured, skipped, failed)
	}
	if len(failures) != 1 || failures[0].Cell.Index != 2 {
		t.Fatalf("failures = %+v", failures)
	}
	if !strings.Contains(failures[0].Err.Error(), "panic: construction deadlocked") {
		t.Errorf("panic error = %v", failures[0].Err)
	}
}

func TestSweepRunError(t *testing.T) {
	cells := numberedCells(t, 1)
	boom := errors.New("boom")
	r := &Runner{Run: func(Cell) (any, error) { return nil, boom }}
	_, _, failed := r.Sweep(cells, func(res Result) {
		if !errors.Is(res.Err, boom) {
			t.Errorf("err = %v", res.Err)
		}
	})
	if failed != 1 {
		t.Fatalf("failed = %d", failed)
	}
}

func TestSweepTimeout(t *testing.T) {
	cells := numberedCells(t, 3)
	release := make(chan struct{})
	defer close(release)
	r := &Runner{
		Timeout: 20 * time.Millisecond,
		Run: func(c Cell) (any, error) {
			if i, _ := c.Int("i"); i == 1 {
				<-release // wedged until test teardown
			}
			return "ok", nil
		},
	}
	var timedOut int
	measured, _, failed := r.Sweep(cells, func(res Result) {
		if res.Err != nil && strings.Contains(res.Err.Error(), "timed out") {
			timedOut++
			if res.Cell.Index != 1 {
				t.Errorf("wrong cell timed out: %d", res.Cell.Index)
			}
		}
	})
	if measured != 2 || failed != 1 || timedOut != 1 {
		t.Fatalf("measured=%d failed=%d timedOut=%d", measured, failed, timedOut)
	}
}
