// Package grid provides the 2D pixel-array representation shared by every
// stage of the island-detection pipeline.
//
// Following §4.1 of the paper, a grid is stored as a flat, row-major slice of
// channel values; the address of pixel (row, col) is row*Cols + col. Rows and
// Cols are runtime parameters here (the HLS implementation fixes them with
// preprocessor macros at compile time, which a library cannot), but every
// algorithm treats them as immutable for the lifetime of a grid.
package grid

import (
	"fmt"
	"strings"
)

// Value is the integrated waveform value of one pixel (one SiPM/PMT channel
// after pedestal subtraction and integration). The HLS design uses int32
// channel values; we match it.
type Value = int32

// Grid is a dense 2D array of pixel values in row-major order.
//
// The zero Grid is empty and unusable; construct with New or FromRows.
type Grid struct {
	rows, cols int
	data       []Value
}

// New returns a zeroed grid with the given dimensions.
// It panics if either dimension is not positive, mirroring the compile-time
// constraint NROWS, NCOLS >= 1 of the HLS design.
func New(rows, cols int) *Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", rows, cols))
	}
	return &Grid{rows: rows, cols: cols, data: make([]Value, rows*cols)}
}

// FromRows builds a grid from a slice of equal-length rows.
func FromRows(rows [][]Value) (*Grid, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("grid: FromRows requires a non-empty rectangle")
	}
	g := New(len(rows), len(rows[0]))
	for r, rowVals := range rows {
		if len(rowVals) != g.cols {
			return nil, fmt.Errorf("grid: row %d has %d values, want %d", r, len(rowVals), g.cols)
		}
		copy(g.data[r*g.cols:(r+1)*g.cols], rowVals)
	}
	return g, nil
}

// FromFlat wraps an existing row-major slice. The slice is used directly (not
// copied), matching the zero-copy hand-off from the Merge module's wide FIFO.
func FromFlat(rows, cols int, data []Value) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: invalid dimensions %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("grid: flat data has %d values, want %d", len(data), rows*cols)
	}
	return &Grid{rows: rows, cols: cols, data: data}, nil
}

// Rows returns the number of rows (NROWS).
func (g *Grid) Rows() int { return g.rows }

// Cols returns the number of columns (NCOLS).
func (g *Grid) Cols() int { return g.cols }

// Pixels returns the total pixel count NROWS*NCOLS.
func (g *Grid) Pixels() int { return g.rows * g.cols }

// In reports whether (row, col) lies inside the grid.
func (g *Grid) In(row, col int) bool {
	return row >= 0 && row < g.rows && col >= 0 && col < g.cols
}

// At returns the value at (row, col). It panics on out-of-range access: the
// hardware design cannot read outside its fixed-size array either.
func (g *Grid) At(row, col int) Value {
	if !g.In(row, col) {
		panic(fmt.Sprintf("grid: At(%d,%d) out of range for %dx%d", row, col, g.rows, g.cols))
	}
	return g.data[row*g.cols+col]
}

// Set stores v at (row, col).
func (g *Grid) Set(row, col int, v Value) {
	if !g.In(row, col) {
		panic(fmt.Sprintf("grid: Set(%d,%d) out of range for %dx%d", row, col, g.rows, g.cols))
	}
	g.data[row*g.cols+col] = v
}

// Flat returns the underlying row-major storage. Mutating it mutates the grid.
func (g *Grid) Flat() []Value { return g.data }

// Lit reports whether the pixel at (row, col) is above zero — i.e. survived
// zero-suppression upstream. Islands are maximal connected sets of lit pixels.
func (g *Grid) Lit(row, col int) bool { return g.At(row, col) != 0 }

// LitFlat reports whether the pixel at flat address i is lit.
func (g *Grid) LitFlat(i int) bool { return g.data[i] != 0 }

// LitCount returns the number of lit pixels.
func (g *Grid) LitCount() int {
	n := 0
	for _, v := range g.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Occupancy returns the lit fraction in [0,1].
func (g *Grid) Occupancy() float64 {
	return float64(g.LitCount()) / float64(g.Pixels())
}

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	c := New(g.rows, g.cols)
	copy(c.data, g.data)
	return c
}

// Equal reports whether g and o have identical dimensions and values.
func (g *Grid) Equal(o *Grid) bool {
	if g.rows != o.rows || g.cols != o.cols {
		return false
	}
	for i, v := range g.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// Threshold returns a copy of g with every value < thr forced to zero.
// This is the zero-suppression semantic applied image-wide.
func (g *Grid) Threshold(thr Value) *Grid {
	c := g.Clone()
	for i, v := range c.data {
		if v < thr {
			c.data[i] = 0
		}
	}
	return c
}

// String renders the grid as ASCII art: '.' for dark pixels and '#' for lit
// ones, one text row per pixel row. Useful in tests and examples.
func (g *Grid) String() string {
	var b strings.Builder
	b.Grow((g.cols + 1) * g.rows)
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			if g.data[r*g.cols+c] != 0 {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		if r != g.rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Parse builds a binary grid from ASCII art. Lines are rows; '.', ' ' and '0'
// are dark; every other non-space rune is a lit pixel with value 1. Blank
// lines and leading/trailing whitespace-only lines are ignored, so tests can
// use indented raw string literals.
func Parse(art string) (*Grid, error) {
	var rows [][]Value
	width := -1
	for _, line := range strings.Split(art, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		vals := make([]Value, 0, len(line))
		for _, ch := range line {
			switch ch {
			case '.', '0':
				vals = append(vals, 0)
			default:
				vals = append(vals, 1)
			}
		}
		if width == -1 {
			width = len(vals)
		} else if len(vals) != width {
			return nil, fmt.Errorf("grid: ragged art: row width %d, want %d", len(vals), width)
		}
		rows = append(rows, vals)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("grid: empty art")
	}
	return FromRows(rows)
}

// MustParse is Parse that panics on error, for test fixtures.
func MustParse(art string) *Grid {
	g, err := Parse(art)
	if err != nil {
		panic(err)
	}
	return g
}
