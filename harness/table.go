// Package harness provides the shared measurement plumbing for the
// benchmark drivers: aligned-table rendering for figure regeneration,
// small statistics helpers, and the native-layer workload runner behind
// internal/measure's cores (cmd/hybsweep's cells).
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a figure rendered as text: one row per x-value (e.g., thread
// count), one column per series (e.g., synchronization approach).
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one formatted row; values are printed with %v, floats
// with two decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table, aligned, to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the smallest and largest of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
