package grid

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// PGM (portable graymap) I/O, so real camera bitmaps can flow through the
// pipeline tools. Both the plain (P2) and raw (P5) variants are read. Gray
// values map directly to pixel intensities (0 = dark).

// ReadPGM parses a PGM image into a grid.
func ReadPGM(r io.Reader) (*Grid, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, fmt.Errorf("grid: pgm: %w", err)
	}
	if magic != "P2" && magic != "P5" {
		return nil, fmt.Errorf("grid: pgm: unsupported magic %q", magic)
	}
	dims := [3]int{}
	for i := range dims {
		tok, err := pgmToken(br)
		if err != nil {
			return nil, fmt.Errorf("grid: pgm header: %w", err)
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("grid: pgm header field %q: %w", tok, err)
		}
		dims[i] = v
	}
	width, height, maxVal := dims[0], dims[1], dims[2]
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("grid: pgm: invalid size %dx%d", width, height)
	}
	if maxVal < 1 || maxVal > 65535 {
		return nil, fmt.Errorf("grid: pgm: invalid maxval %d", maxVal)
	}
	// The header is outside input: reject a size whose pixel count, or P5
	// byte count, does not fit in an int rather than wrap it.
	if width > math.MaxInt/height {
		return nil, fmt.Errorf("grid: pgm: size %dx%d overflows", width, height)
	}
	n := width * height
	// P5: binary samples, 1 byte if maxVal < 256, else 2 bytes big-endian.
	bytesPer := 1
	if maxVal > 255 {
		bytesPer = 2
	}
	if magic == "P5" && n > math.MaxInt/bytesPer {
		return nil, fmt.Errorf("grid: pgm: size %dx%d overflows", width, height)
	}
	// Pixels are read before the grid is sized, so memory grows with the
	// input actually present, not with what the header claims.
	var data []Value
	if magic == "P2" {
		for i := 0; i < n; i++ {
			tok, err := pgmToken(br)
			if err != nil {
				return nil, fmt.Errorf("grid: pgm pixel %d: %w", i, err)
			}
			v, err := strconv.Atoi(tok)
			if err != nil || v < 0 || v > maxVal {
				return nil, fmt.Errorf("grid: pgm pixel %d: bad value %q", i, tok)
			}
			data = append(data, Value(v))
		}
		return FromFlat(height, width, data)
	}
	buf, err := io.ReadAll(io.LimitReader(br, int64(n*bytesPer)))
	if err != nil {
		return nil, fmt.Errorf("grid: pgm raster: %w", err)
	}
	if len(buf) < n*bytesPer {
		return nil, fmt.Errorf("grid: pgm raster: %w", io.ErrUnexpectedEOF)
	}
	data = make([]Value, n)
	for i := range data {
		var v int
		if bytesPer == 1 {
			v = int(buf[i])
		} else {
			v = int(buf[2*i])<<8 | int(buf[2*i+1])
		}
		if v > maxVal {
			return nil, fmt.Errorf("grid: pgm pixel %d: value %d exceeds maxval %d", i, v, maxVal)
		}
		data[i] = Value(v)
	}
	return FromFlat(height, width, data)
}

// pgmToken returns the next whitespace-delimited token, skipping '#'
// comments per the netpbm spec.
func pgmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if len(tok) > 0 && err == io.EOF {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#' && len(tok) == 0:
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}
