// Package sweep is the scenario-lab engine: a grid of named axes with
// command-line overrides, deterministic cell enumeration, and a
// sequential runner with per-cell timeout, panic recovery and
// skip-reasons, streaming results in cell order. It is
// workload-agnostic — cmd/hybsweep supplies the axes and the
// measurement function; this package supplies the machinery (in the
// style of the lava-sweep and pacs_sweep harnesses referenced in
// SNIPPETS.md).
package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Axis is one named grid dimension with its value list. Values are
// strings at this layer; typed accessors live on Cell so one grid can
// mix integer axes (threads, depth) with symbolic ones (algo, dist).
type Axis struct {
	Name   string
	Values []string
}

// Grid is an ordered list of axes. Order is significant: Cells()
// enumerates the cartesian product with the LAST axis varying fastest,
// so two runs over the same grid produce cells in the same order (the
// property the committed JSONL artifacts and the resume-by-cell-index
// story depend on).
type Grid struct {
	axes []Axis
}

// New builds a grid from axes in the given order. Every axis must
// have a unique name and at least one value.
func New(axes ...Axis) (*Grid, error) {
	g := &Grid{}
	seen := map[string]bool{}
	for _, a := range axes {
		if a.Name == "" || len(a.Values) == 0 {
			return nil, fmt.Errorf("axis %q needs a name and at least one value", a.Name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		g.axes = append(g.axes, Axis{Name: a.Name, Values: append([]string(nil), a.Values...)})
	}
	return g, nil
}

// Axes returns the axes in enumeration order (a copy).
func (g *Grid) Axes() []Axis {
	out := make([]Axis, len(g.axes))
	copy(out, g.axes)
	return out
}

// Values returns the value list of the named axis.
func (g *Grid) Values(name string) ([]string, bool) {
	for _, a := range g.axes {
		if a.Name == name {
			return a.Values, true
		}
	}
	return nil, false
}

// Override replaces the value list of an existing axis; overriding an
// axis the grid does not have is an error (it names the known axes, so
// a typo in a -grid spec fails loudly instead of silently sweeping the
// default).
func (g *Grid) Override(name string, values []string) error {
	if len(values) == 0 {
		return fmt.Errorf("axis %q: empty value list", name)
	}
	for i := range g.axes {
		if g.axes[i].Name == name {
			g.axes[i].Values = values
			return nil
		}
	}
	known := make([]string, len(g.axes))
	for i, a := range g.axes {
		known[i] = a.Name
	}
	return fmt.Errorf("unknown axis %q (known: %s)", name, strings.Join(known, ", "))
}

// ParseOverrides applies a spec of the form
//
//	"algo=mpserver,hybcomb;threads=1,2,4;depth=1,8"
//
// over the grid: ';' separates axes, '=' binds an axis name to a
// comma-separated value list. Whitespace around tokens is ignored;
// empty clauses (trailing ';') are allowed. Axes not named keep their
// defaults.
func (g *Grid) ParseOverrides(spec string) error {
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, vals, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("bad grid clause %q (want axis=v1,v2,...)", clause)
		}
		var values []string
		for _, v := range strings.Split(vals, ",") {
			if v = strings.TrimSpace(v); v != "" {
				values = append(values, v)
			}
		}
		if err := g.Override(strings.TrimSpace(name), values); err != nil {
			return err
		}
	}
	return nil
}

// IntAxis parses the named axis's values as positive integers —
// the up-front validation for numeric axes, so a bad -grid value
// fails before any cell runs.
func (g *Grid) IntAxis(name string) ([]int, error) {
	values, ok := g.Values(name)
	if !ok {
		return nil, fmt.Errorf("unknown axis %q", name)
	}
	out := make([]int, len(values))
	for i, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("axis %q: value %q is not a positive integer", name, v)
		}
		out[i] = n
	}
	return out, nil
}

// Cell is one point of the grid: an index into the deterministic
// enumeration plus the axis-name → value binding.
type Cell struct {
	Index  int
	values map[string]string
}

// Get returns the cell's value for the named axis ("" if absent).
func (c Cell) Get(name string) string { return c.values[name] }

// Int parses the cell's value for the named axis as an integer.
func (c Cell) Int(name string) (int, error) {
	v, ok := c.values[name]
	if !ok {
		return 0, fmt.Errorf("cell %d: no axis %q", c.Index, name)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("cell %d: axis %q: %w", c.Index, name, err)
	}
	return n, nil
}

// String renders the cell's bindings in axis-name order, for logs and
// error messages.
func (c Cell) String() string {
	names := make([]string, 0, len(c.values))
	for name := range c.values {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = name + "=" + c.values[name]
	}
	return strings.Join(parts, " ")
}

// Cells enumerates the cartesian product in deterministic order: the
// last axis varies fastest, indices are contiguous from 0.
func (g *Grid) Cells() []Cell {
	total := 1
	for _, a := range g.axes {
		total *= len(a.Values)
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(g.axes))
	for i := 0; i < total; i++ {
		vals := make(map[string]string, len(g.axes))
		for j, a := range g.axes {
			vals[a.Name] = a.Values[idx[j]]
		}
		cells = append(cells, Cell{Index: i, values: vals})
		for j := len(g.axes) - 1; j >= 0; j-- {
			idx[j]++
			if idx[j] < len(g.axes[j].Values) {
				break
			}
			idx[j] = 0
		}
	}
	return cells
}
