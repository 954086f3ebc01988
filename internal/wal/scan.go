package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// Record is one recovered log entry. Payload aliases the segment buffer the
// scanner read it from; each segment is read into a fresh buffer that is never
// rewritten, so a payload stays valid after later Next calls.
type Record struct {
	// Event is the event id stamped at append time.
	Event uint32
	// TsNanos is the append time as nanoseconds since the recording writer
	// opened — the monotonic offsets replay pacing is derived from.
	TsNanos uint64
	// Payload is the event's raw wire bytes.
	Payload []byte
}

// Scanner iterates a log directory's records in append order: segments by
// index, records by offset. It is tolerant by construction — a segment scan
// ends at the first invalid byte (zeros from preallocation, a torn record, a
// corrupted header), never returns a record whose CRC does not match, and
// always terminates because the scan offset strictly advances.
type Scanner struct {
	paths []string
	next  int
	data  []byte
	off   int64

	records   uint64
	torn      int
	tornBytes int64
}

// NewScanner opens the log directory for scanning.
func NewScanner(dir string) (*Scanner, error) {
	paths, _, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	return &Scanner{paths: paths}, nil
}

// Next returns the next valid record, or io.EOF after the last segment.
func (s *Scanner) Next() (Record, error) {
	for {
		if s.data == nil {
			if s.next >= len(s.paths) {
				return Record{}, io.EOF
			}
			path := s.paths[s.next]
			s.next++
			data, err := os.ReadFile(path)
			if err != nil {
				return Record{}, fmt.Errorf("wal: %w", err)
			}
			if len(data) == 0 {
				continue // fully truncated by a previous repair
			}
			if len(data) < segHeaderLen || string(data[:8]) != segMagic ||
				binary.BigEndian.Uint32(data[8:]) != segVersion {
				s.markTorn(data, 0)
				continue
			}
			s.data, s.off = data, segHeaderLen
		}
		rec, ok := nextRecord(s.data, &s.off)
		if !ok {
			// End of this segment: zeros (clean preallocated tail) or a torn
			// record. Either way the segment is exhausted.
			s.markTorn(s.data, s.off)
			s.data = nil
			continue
		}
		s.records++
		return rec, nil
	}
}

// nextRecord validates and decodes the record at *off, advancing *off past
// it. ok is false at the first invalid byte.
func nextRecord(data []byte, off *int64) (Record, bool) {
	rem := int64(len(data)) - *off
	if rem < recHeaderLen {
		return Record{}, false
	}
	hdr := data[*off:]
	if binary.BigEndian.Uint32(hdr) != recMagic {
		return Record{}, false
	}
	size := int64(binary.BigEndian.Uint32(hdr[4:]))
	if size > rem-recHeaderLen {
		return Record{}, false
	}
	payload := hdr[recHeaderLen : recHeaderLen+size]
	crc := crc32.Update(0, castagnoli, hdr[:20])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.BigEndian.Uint32(hdr[20:]) {
		return Record{}, false
	}
	*off += recHeaderLen + size
	return Record{
		Event:   binary.BigEndian.Uint32(hdr[8:]),
		TsNanos: binary.BigEndian.Uint64(hdr[12:]),
		Payload: payload,
	}, true
}

// markTorn accounts non-zero bytes found past the valid prefix of a segment
// (the debris of at most one record torn mid-append).
func (s *Scanner) markTorn(data []byte, valid int64) {
	end := dataEnd(data)
	if end > valid {
		s.torn++
		s.tornBytes += end - valid
	}
}

// dataEnd returns the offset just past the last non-zero byte.
func dataEnd(data []byte) int64 {
	i := len(data)
	for i > 0 && data[i-1] == 0 {
		i--
	}
	return int64(i)
}

// Records returns how many valid records have been returned so far.
func (s *Scanner) Records() uint64 { return s.records }

// Torn returns how many segments ended in non-zero debris past their last
// valid record. A log repaired by Open scans with Torn() == 0; a log taken
// straight from a crash reports at most one torn segment (the newest).
func (s *Scanner) Torn() int { return s.torn }

// TornBytes returns the total non-zero debris bytes behind Torn.
func (s *Scanner) TornBytes() int64 { return s.tornBytes }

// Close releases the scanner. (Segments are read whole; nothing stays open.)
func (s *Scanner) Close() error {
	s.data = nil
	return nil
}

// repairResult is what repairSegment found.
type repairResult struct {
	records   int
	validEnd  int64
	tornBytes int64
}

// repairSegment truncates path at the end of its last valid record,
// discarding a torn tail and the preallocated zeros behind it. A segment
// whose header is unreadable is truncated to zero (nothing in it ever
// committed).
func repairSegment(path string) (repairResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return repairResult{}, fmt.Errorf("wal: %w", err)
	}
	var res repairResult
	if len(data) >= segHeaderLen && string(data[:8]) == segMagic &&
		binary.BigEndian.Uint32(data[8:]) == segVersion {
		res.validEnd = segHeaderLen
		for {
			if _, ok := nextRecord(data, &res.validEnd); !ok {
				break
			}
			res.records++
		}
	}
	if end := dataEnd(data); end > res.validEnd {
		res.tornBytes = end - res.validEnd
	}
	if int64(len(data)) != res.validEnd {
		if err := os.Truncate(path, res.validEnd); err != nil {
			return res, fmt.Errorf("wal: repair %s: %w", filepath.Base(path), err)
		}
	}
	return res, nil
}

// PayloadValidator re-frames record payloads with the framing the gateway
// uses (adapt.StreamReader.SkimEvent in capture mode), verifying that a
// payload is exactly `asics` ALPHA frames sharing one event id and one sample
// count, the first of them checksummed, with no leftover bytes. One validator
// amortizes the reader's 64 KiB window across a whole segment scan.
type PayloadValidator struct {
	br *bytes.Reader
	sr *adapt.StreamReader
}

// NewPayloadValidator returns a reusable validator.
func NewPayloadValidator() *PayloadValidator {
	v := &PayloadValidator{br: bytes.NewReader(nil)}
	v.sr = adapt.NewStreamReader(v.br)
	v.sr.SetCapture(true)
	return v
}

// Validate frames payload as one event of `asics` frames and returns its
// event id. It fails if framing fails, if any bytes had to be skipped, or if
// the event does not consume the payload exactly.
func (v *PayloadValidator) Validate(payload []byte, asics int) (uint32, error) {
	v.br.Reset(payload)
	v.sr.Reset(v.br)
	event, err := v.sr.SkimEvent(asics)
	if err != nil {
		return 0, fmt.Errorf("wal: payload framing: %w", err)
	}
	if framed := len(v.sr.Captured()); v.sr.SkippedBytes != 0 || framed != len(payload) {
		return event, fmt.Errorf("wal: payload for event %d is not exactly %d frames (%d of %d bytes framed, %d skipped)",
			event, asics, framed, len(payload), v.sr.SkippedBytes)
	}
	return event, nil
}
