package sweep

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Result is the outcome of one cell. Exactly one of the three states
// holds: skipped (Skip non-empty, never run), failed (Err non-nil:
// the cell panicked or timed out), or measured (Value as returned by
// the runner's Run).
type Result struct {
	Cell    Cell
	Skip    string
	Err     error
	Value   any
	Elapsed time.Duration
}

// Runner runs grid cells one at a time: cells measured concurrently
// would contend for the same cores and distort each other, and a
// timed-out cell's OnTimeout would condemn whatever else was running.
//
// Check, if set, vets a cell before it runs; a non-empty return is
// the skip-reason and Run is never called for that cell (e.g.
// "batch-and-depth-exclusive" for grid corners the execution model
// does not define).
//
// Timeout, if positive, bounds each Run call. A cell that exceeds it
// fails with a timeout error and its goroutine is abandoned —
// goroutines cannot be killed, so a truly wedged measurement leaks
// until process exit. That is the accepted cost of turning a
// deadlocked construction into a red sweep record instead of a hung
// harness.
//
// OnTimeout, if set, is called (after the deadline fires but before
// the Result is emitted) for each abandoned cell. It is the finalizer
// for whatever the cell leaked: a harness that tracks live executors
// per cell should poison and close them here so the wedged cell's
// waiters unblock and its server goroutines exit, instead of leaking
// until process exit. It must not block — the abandoned Run goroutine
// may still be using the cell.
//
// Run performs the measurement. It may panic: panics are recovered
// into Result.Err with a stack, and the sweep continues.
type Runner struct {
	Timeout   time.Duration
	Check     func(Cell) string
	Run       func(Cell) (any, error)
	OnTimeout func(Cell)
}

// Sweep runs every cell in the order given and calls emit once per
// cell as it finishes, so emit can stream JSONL straight to a file. It
// returns the counts of measured, skipped and failed cells.
func (r *Runner) Sweep(cells []Cell, emit func(Result)) (measured, skipped, failed int) {
	for _, cell := range cells {
		res := r.runCell(cell)
		switch {
		case res.Skip != "":
			skipped++
		case res.Err != nil:
			failed++
		default:
			measured++
		}
		emit(res)
	}
	return measured, skipped, failed
}

// runCell executes one cell with skip vetting, panic recovery and the
// per-cell timeout.
func (r *Runner) runCell(cell Cell) Result {
	if r.Check != nil {
		if reason := r.Check(cell); reason != "" {
			return Result{Cell: cell, Skip: reason}
		}
	}
	type outcome struct {
		value any
		err   error
	}
	ch := make(chan outcome, 1) // buffered: a timed-out cell's goroutine must not block forever on send
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		v, err := r.Run(cell)
		ch <- outcome{value: v, err: err}
	}()
	if r.Timeout > 0 {
		timer := time.NewTimer(r.Timeout)
		defer timer.Stop()
		select {
		case o := <-ch:
			return Result{Cell: cell, Value: o.value, Err: o.err, Elapsed: time.Since(start)}
		case <-timer.C:
			if r.OnTimeout != nil {
				r.OnTimeout(cell)
			}
			return Result{Cell: cell, Err: fmt.Errorf("timed out after %v (goroutine abandoned)", r.Timeout), Elapsed: time.Since(start)}
		}
	}
	o := <-ch
	return Result{Cell: cell, Value: o.value, Err: o.err, Elapsed: time.Since(start)}
}
