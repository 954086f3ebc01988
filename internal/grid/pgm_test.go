package grid

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// plainPGM renders a non-negative grid as plain (P2) PGM text, maxval the
// grid's maximum (at least 1).
func plainPGM(g *Grid) string {
	maxVal := Value(1)
	for _, v := range g.Flat() {
		maxVal = max(maxVal, v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n# hepccl island image\n%d %d\n%d\n", g.Cols(), g.Rows(), maxVal)
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			fmt.Fprintf(&b, "%d ", g.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestPGMPlainRoundTrip(t *testing.T) {
	g, _ := FromRows([][]Value{{0, 3, 9}, {1, 0, 255}})
	back, err := ReadPGM(strings.NewReader(plainPGM(g)))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatalf("round trip changed image:\n%v\nvs\n%v", g.Flat(), back.Flat())
	}
}

func TestPGMPlainWithComments(t *testing.T) {
	src := "P2\n# a comment\n3 2\n# another\n10\n0 1 2\n3 4 5\n"
	g, err := ReadPGM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 2 || g.Cols() != 3 || g.At(1, 2) != 5 {
		t.Fatalf("parsed wrong: %v", g.Flat())
	}
}

func TestPGMRaw8And16(t *testing.T) {
	// P5, 2x2, maxval 255, one byte per sample.
	raw8 := append([]byte("P5\n2 2\n255\n"), 0, 7, 200, 255)
	g, err := ReadPGM(bytes.NewReader(raw8))
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 1) != 7 || g.At(1, 1) != 255 {
		t.Fatalf("raw8 wrong: %v", g.Flat())
	}
	// P5 16-bit big-endian.
	raw16 := append([]byte("P5\n1 2\n1000\n"), 0x03, 0xE8, 0x00, 0x2A)
	g, err = ReadPGM(bytes.NewReader(raw16))
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 0) != 1000 || g.At(1, 0) != 42 {
		t.Fatalf("raw16 wrong: %v", g.Flat())
	}
}

func TestPGMErrors(t *testing.T) {
	cases := []string{
		"",                                   // empty
		"P6\n2 2\n255\n",                     // wrong magic
		"P2\n0 2\n255\n",                     // zero width
		"P2\n2 2\n0\n0 0 0 0",                // bad maxval
		"P2\n2 2\n255\n1 2 3",                // short raster
		"P2\n2 2\n255\n1 2 x 4",              // junk pixel
		"P2\n2 2\n9\n1 2 3 10",               // pixel above maxval
		"P5\n2 2\n255\nAB",                   // short binary raster
		"P2\nx 2\n255\n",                     // non-numeric header
		"P2\n4294967296 4294967296\n255\n",   // width×height overflows int
		"P5\n4294967296 4294967296\n255\n",   // width×height overflows int
		"P5\n4294967296 1073741824\n65535\n", // 2-byte raster size overflows int
		"P5\n16777216 8388608\n255\n",        // fits an int, but no raster follows
		"P2\n100000 100000\n255\n1 2",        // 40 GB claimed, two pixels given
	}
	for _, src := range cases {
		if _, err := ReadPGM(strings.NewReader(src)); err == nil {
			t.Errorf("ReadPGM(%q): want error", src)
		}
	}
}

// Property: ReadPGM round-trips arbitrary non-negative images from P2 text.
func TestPGMRoundTripProperty(t *testing.T) {
	f := func(cells [24]uint16, w uint8) bool {
		cols := int(w)%6 + 1
		rows := len(cells) / cols
		if rows < 1 {
			return true
		}
		g := New(rows, cols)
		for i := 0; i < rows*cols; i++ {
			g.Flat()[i] = Value(cells[i])
		}
		back, err := ReadPGM(strings.NewReader(plainPGM(g)))
		if err != nil {
			return false
		}
		return back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
