package harness

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "x", "longer-column")
	tab.Note = "a note"
	tab.AddRow(1, 3.14159)
	tab.AddRow(20, "text")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"## Demo", "a note", "longer-column", "3.14", "text"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestMeanAndMinMax(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestRunNativeCountsOps(t *testing.T) {
	var calls atomic.Uint64
	res := RunNativeDrain(4, 50*time.Millisecond, 10, func(thread int) (func(uint64), func()) {
		return func(uint64) { calls.Add(1) }, nil
	})
	if res.Ops == 0 {
		t.Fatal("no ops recorded")
	}
	if res.Ops != calls.Load() {
		t.Fatalf("ops %d != calls %d", res.Ops, calls.Load())
	}
	if len(res.PerThread) != 4 {
		t.Fatalf("per-thread len %d", len(res.PerThread))
	}
	if res.Mops() <= 0 {
		t.Fatal("Mops not positive")
	}
	if f := res.Fairness(); f < 1 {
		t.Fatalf("fairness %v < 1", f)
	}
}

func TestXorShiftDeterministicNonZero(t *testing.T) {
	a, b := NewXorShift(7), NewXorShift(7)
	for i := 0; i < 100; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatal("same seed diverged")
		}
		if va == 0 {
			t.Fatal("xorshift emitted zero")
		}
	}
	if NewXorShift(0) == 0 {
		t.Fatal("zero seed not remapped")
	}
}
