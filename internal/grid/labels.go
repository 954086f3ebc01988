package grid

import (
	"fmt"
	"sort"
	"strings"
)

// Label identifies a connected component. Labels are positive; 0 means
// background (dark pixel). The HLS design stores labels in the same 32-bit
// channel slots as pixel data, so int32 matches the hardware width.
type Label = int32

// Labels is a per-pixel label assignment over a grid of the same shape.
type Labels struct {
	rows, cols int
	lab        []Label
}

// NewLabels returns an all-background label map for a rows×cols grid.
func NewLabels(rows, cols int) *Labels {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("grid: invalid label dimensions %dx%d", rows, cols))
	}
	return &Labels{rows: rows, cols: cols, lab: make([]Label, rows*cols)}
}

// Rows returns the number of rows.
func (l *Labels) Rows() int { return l.rows }

// Cols returns the number of columns.
func (l *Labels) Cols() int { return l.cols }

// Pixels returns rows*cols.
func (l *Labels) Pixels() int { return l.rows * l.cols }

// At returns the label at (row, col).
func (l *Labels) At(row, col int) Label {
	if row < 0 || row >= l.rows || col < 0 || col >= l.cols {
		panic(fmt.Sprintf("grid: label At(%d,%d) out of range for %dx%d", row, col, l.rows, l.cols))
	}
	return l.lab[row*l.cols+col]
}

// Set stores label v at (row, col).
func (l *Labels) Set(row, col int, v Label) {
	if row < 0 || row >= l.rows || col < 0 || col >= l.cols {
		panic(fmt.Sprintf("grid: label Set(%d,%d) out of range for %dx%d", row, col, l.rows, l.cols))
	}
	l.lab[row*l.cols+col] = v
}

// AtFlat returns the label at flat address i.
func (l *Labels) AtFlat(i int) Label { return l.lab[i] }

// SetFlat stores label v at flat address i.
func (l *Labels) SetFlat(i int, v Label) { l.lab[i] = v }

// Flat returns the underlying row-major label storage.
func (l *Labels) Flat() []Label { return l.lab }

// Count returns the number of distinct non-background labels present.
func (l *Labels) Count() int {
	seen := make(map[Label]struct{})
	for _, v := range l.lab {
		if v != 0 {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// Distinct returns the sorted set of non-background labels present.
func (l *Labels) Distinct() []Label {
	seen := make(map[Label]struct{})
	for _, v := range l.lab {
		if v != 0 {
			seen[v] = struct{}{}
		}
	}
	out := make([]Label, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports exact per-pixel equality (same label numbers).
// Most comparisons between labeling algorithms should use Isomorphic instead,
// since label numbering is algorithm-specific.
func (l *Labels) Equal(o *Labels) bool {
	if l.rows != o.rows || l.cols != o.cols {
		return false
	}
	for i, v := range l.lab {
		if o.lab[i] != v {
			return false
		}
	}
	return true
}

// Isomorphic reports whether l and o induce the same partition of pixels into
// components: there must be a bijection between their label sets such that
// relabeled l equals o, and background must coincide. This is the correctness
// relation used to compare labelers — "colors and numbers reflect the final
// label assigned" (Fig 4) but the numbers themselves are arbitrary.
func (l *Labels) Isomorphic(o *Labels) bool {
	if l.rows != o.rows || l.cols != o.cols {
		return false
	}
	fwd := make(map[Label]Label)
	bwd := make(map[Label]Label)
	for i, a := range l.lab {
		b := o.lab[i]
		if (a == 0) != (b == 0) {
			return false
		}
		if a == 0 {
			continue
		}
		if m, ok := fwd[a]; ok {
			if m != b {
				return false
			}
		} else {
			fwd[a] = b
		}
		if m, ok := bwd[b]; ok {
			if m != a {
				return false
			}
		} else {
			bwd[b] = a
		}
	}
	return true
}

// Compact renumbers labels to 1..K in first-appearance (raster) order and
// returns the number of components K. The paper's resolved merge table
// produces "compact, final island IDs" the same way.
func (l *Labels) Compact() int {
	next := Label(1)
	remap := make(map[Label]Label)
	for i, v := range l.lab {
		if v == 0 {
			continue
		}
		m, ok := remap[v]
		if !ok {
			m = next
			remap[v] = m
			next++
		}
		l.lab[i] = m
	}
	return int(next - 1)
}

// String renders the label map: '.' for background, '1'-'9' then 'a'-'z' then
// 'A'-'Z' for labels 1..61, '*' beyond. Intended for tests and examples.
func (l *Labels) String() string {
	var b strings.Builder
	b.Grow((l.cols + 1) * l.rows)
	for r := 0; r < l.rows; r++ {
		for c := 0; c < l.cols; c++ {
			b.WriteByte(labelGlyph(l.lab[r*l.cols+c]))
		}
		if r != l.rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func labelGlyph(v Label) byte {
	switch {
	case v == 0:
		return '.'
	case v <= 9:
		return byte('0' + v)
	case v <= 35:
		return byte('a' + v - 10)
	case v <= 61:
		return byte('A' + v - 36)
	default:
		return '*'
	}
}

// ParseLabels is the inverse of String for test fixtures: '.' is background,
// '1'-'9', 'a'-'z', 'A'-'Z' map back to labels 1..61.
func ParseLabels(art string) (*Labels, error) {
	var rows [][]Label
	width := -1
	for _, line := range strings.Split(art, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		vals := make([]Label, 0, len(line))
		for _, ch := range line {
			v, err := glyphLabel(ch)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		if width == -1 {
			width = len(vals)
		} else if len(vals) != width {
			return nil, fmt.Errorf("grid: ragged label art: row width %d, want %d", len(vals), width)
		}
		rows = append(rows, vals)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("grid: empty label art")
	}
	l := NewLabels(len(rows), width)
	for r, rowVals := range rows {
		copy(l.lab[r*width:(r+1)*width], rowVals)
	}
	return l, nil
}

func glyphLabel(ch rune) (Label, error) {
	switch {
	case ch == '.':
		return 0, nil
	case ch >= '1' && ch <= '9':
		return Label(ch - '0'), nil
	case ch >= 'a' && ch <= 'z':
		return Label(ch-'a') + 10, nil
	case ch >= 'A' && ch <= 'Z':
		return Label(ch-'A') + 36, nil
	default:
		return 0, fmt.Errorf("grid: invalid label glyph %q", ch)
	}
}

// MustParseLabels is ParseLabels that panics on error, for test fixtures.
func MustParseLabels(art string) *Labels {
	l, err := ParseLabels(art)
	if err != nil {
		panic(err)
	}
	return l
}
