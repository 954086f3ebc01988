// Package wal is the durable frame write-ahead log: a zero-copy,
// crash-recoverable record of every raw ALPHA event the ingest spine
// admitted. Production detectors reprocess — a recorded run is replayed
// through the same spine for regression, capacity, and forensic work — so
// the log stores the exact wire bytes of each assembled event, not a decoded
// form, and hepccld -replay re-serves them byte-for-byte.
//
// # On-disk format
//
// A log is a directory of fixed-size segment files named wal-%08d.seg with a
// strictly increasing index. Each segment starts with a 32-byte header
// (magic "HEPCWAL1", format version, segment index, creation time) and is
// preallocated to its full size at creation, then filled by pure memcpy into
// a shared mmap of the file — an append is two header stores, one payload
// copy, and a CRC. The only syscall on the append path is one madvise per
// releaseBytes (2 MiB) of log on Linux, which drops the written pages behind
// the cursor from the process's mapping: they stay in the page cache, so the
// writer's resident set holds about two windows of a segment, not all of
// it. Records are laid back-to-back:
//
//	offset  size  field
//	0       4     record magic "WALR"
//	4       4     payload length (bytes)
//	8       4     event id (the id carried by every frame of the payload)
//	12      8     timestamp: nanoseconds since the writer opened (monotonic),
//	              which is what lets replay reproduce the recorded pacing
//	20      4     CRC-32C over bytes 0..19 and the payload
//	24      n     payload: the event's frames, exact wire bytes
//
// # Torn-write rules
//
// The CRC is written last, after the payload, so a record interrupted by a
// crash — SIGKILL, OOM kill, power loss after the pages flushed — fails its
// CRC and is treated as the end of the segment. Preallocated-but-unwritten
// space is zeros, which fail the record magic, so a clean scan and a torn
// scan terminate the same way: at the first invalid record. Open repairs the
// newest segment by truncating everything past the last valid record (at
// most one partial record is lost, the one being appended at the kill) and
// starts a fresh segment, never appending into a recovered one.
//
// Durability is at the process level by default: appends land in the page
// cache, so a process kill loses nothing that Append returned for, while a
// machine crash can lose recently appended records. Sync forces the dirty
// pages down when a caller needs machine-crash durability.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// segMagic opens every segment file.
	segMagic = "HEPCWAL1"
	// segVersion is the current format version.
	segVersion = 1
	// segHeaderLen is the segment header size.
	segHeaderLen = 32
	// recMagic opens every record ("WALR" big-endian).
	recMagic = 0x57414C52
	// recHeaderLen is the per-record header size.
	recHeaderLen = 24
	// minSegmentBytes bounds SegmentBytes below so a segment always fits its
	// header and at least one small record.
	minSegmentBytes = 4 << 10
	// defaultSegmentBytes is the segment size when Options leaves it zero.
	defaultSegmentBytes = 64 << 20
	// releaseBytes is the granule in which Append releases a mapped
	// segment's written pages: once the cursor is this far past the last
	// release, every whole granule behind it is dropped from the mapping.
	// A power of two and a multiple of every page size.
	releaseBytes = 2 << 20
)

// castagnoli is the CRC-32C table shared by writer and scanner.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options parameterizes a Writer.
type Options struct {
	// Dir is the log directory, created if missing.
	Dir string
	// SegmentBytes is the preallocated size of each segment file.
	// Default 64 MiB; values below 4 KiB are raised to 4 KiB. A record
	// larger than one segment gets a dedicated exactly-sized segment.
	SegmentBytes int64
	// Retain bounds how many segment files are kept, the active one
	// included: when a rotation pushes the count past Retain, the oldest
	// segments are deleted. 0 keeps all.
	Retain int
	// Logger receives recovery and failure lines. nil silences them.
	Logger *log.Logger
}

// RecoverInfo reports what Open found and repaired in an existing log.
type RecoverInfo struct {
	// Segments is how many segment files existed before recovery.
	Segments int
	// TailRecords is how many valid records the newest segment held.
	TailRecords int
	// TornBytes is how many bytes of non-zero data past the last valid
	// record were truncated from the newest segment — the remains of at most
	// one record torn by a crash mid-append.
	TornBytes int64
}

// Writer appends event records to a segmented log. Append is safe for
// concurrent use (the ingest spine has one reader goroutine per connection);
// everything else must be called from one goroutine.
type Writer struct {
	opts Options

	mu       sync.Mutex
	seg      *segment
	segIndex uint64
	off      int64
	failed   error // sticky: after an I/O error the writer refuses appends
	lastErr  string
	paths    []string // live segment files, oldest first (retention input)
	start    time.Time

	records      atomic.Uint64
	bytes        atomic.Uint64
	segments     atomic.Uint64
	appendErrors atomic.Uint64
}

// Open creates or recovers the log at opts.Dir and returns a writer that
// appends to a fresh segment. An existing newest segment is repaired first:
// its tail is truncated at the last CRC-valid record, so at most one record
// (the one torn by a crash) is dropped. Recovered segments are never
// appended to again.
func Open(opts Options) (*Writer, RecoverInfo, error) {
	if opts.Dir == "" {
		return nil, RecoverInfo{}, fmt.Errorf("wal: no directory configured")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SegmentBytes < minSegmentBytes {
		opts.SegmentBytes = minSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("wal: %w", err)
	}
	paths, indexes, err := listSegments(opts.Dir)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	w := &Writer{opts: opts, paths: paths, start: time.Now()}
	info := RecoverInfo{Segments: len(paths)}
	if n := len(paths); n > 0 {
		w.segIndex = indexes[n-1]
		res, err := repairSegment(paths[n-1])
		if err != nil {
			return nil, info, err
		}
		info.TailRecords = res.records
		info.TornBytes = res.tornBytes
		if info.TornBytes > 0 && opts.Logger != nil {
			opts.Logger.Printf("wal: recovered %s: kept %d records, truncated %d torn bytes",
				filepath.Base(paths[n-1]), res.records, res.tornBytes)
		}
	}
	return w, info, nil
}

// segName formats a segment file name for index.
func segName(index uint64) string { return fmt.Sprintf("wal-%08d.seg", index) }

// listSegments returns the directory's segment paths and indexes, sorted by
// index.
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	type seg struct {
		path  string
		index uint64
	}
	var segs []seg
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, seg{filepath.Join(dir, name), idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	paths := make([]string, len(segs))
	indexes := make([]uint64, len(segs))
	for i, s := range segs {
		paths[i], indexes[i] = s.path, s.index
	}
	return paths, indexes, nil
}

// Append writes one event record. payload must be the event's exact wire
// bytes; tsNanos is stamped from the writer's monotonic clock. Concurrent
// callers serialize on the writer's mutex; the append itself is a memcpy
// into the mapped segment, plus one madvise per releaseBytes (2 MiB) of log
// that releases the written pages behind the cursor. After any I/O error the
// writer is failed: the error is sticky and every later Append returns it
// immediately, so recording can never stall or wedge the serving path.
func (w *Writer) Append(event uint32, payload []byte) error {
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		w.appendErrors.Add(1)
		return err
	}
	need := int64(recHeaderLen + len(payload))
	if w.seg == nil || w.off+need > int64(len(w.seg.data)) {
		if err := w.rotate(need); err != nil {
			w.fail(err)
			w.mu.Unlock()
			w.appendErrors.Add(1)
			return err
		}
	}
	buf := w.seg.data[w.off : w.off+need]
	binary.BigEndian.PutUint32(buf[0:], recMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[8:], event)
	binary.BigEndian.PutUint64(buf[12:], uint64(time.Since(w.start)))
	copy(buf[recHeaderLen:], payload)
	// The CRC is the commit point: it is computed over everything before it
	// and stored last, so a crash anywhere mid-append leaves a record that
	// fails validation and is truncated at recovery.
	crc := crc32.Update(0, castagnoli, buf[:20])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(buf[20:], crc)
	w.off += need
	// The release runs under w.mu so a concurrent rotate cannot unmap or
	// reuse the range while it is being dropped.
	if w.off-w.seg.released >= releaseBytes {
		w.release()
	}
	w.mu.Unlock()
	w.records.Add(1)
	w.bytes.Add(uint64(need))
	return nil
}

// release drops the active segment's whole releaseBytes granules behind the
// cursor from the mapping. The pages stay dirty in the page cache, so
// durability, Sync and the scanner see the same bytes. A failed madvise only
// costs memory: it is logged and releasing stops for this segment. Caller
// holds w.mu.
func (w *Writer) release() {
	sg := w.seg
	end := w.off &^ (releaseBytes - 1)
	if sg.mapped {
		if err := releaseMapped(sg.data[sg.released:end]); err != nil {
			if w.opts.Logger != nil {
				w.opts.Logger.Printf("wal: release %s: %v", filepath.Base(sg.f.Name()), err)
			}
			end = int64(len(sg.data))
		}
	}
	sg.released = end
}

// fail records the sticky failure. Caller holds w.mu.
func (w *Writer) fail(err error) {
	w.failed = err
	w.lastErr = err.Error()
	if w.opts.Logger != nil {
		w.opts.Logger.Printf("wal: recording failed (sticky): %v", err)
	}
}

// rotate seals the active segment and opens the next one, enforcing
// retention. Caller holds w.mu.
func (w *Writer) rotate(need int64) error {
	if w.seg != nil {
		if err := w.seg.seal(w.off); err != nil {
			return err
		}
		w.seg = nil
	}
	size := w.opts.SegmentBytes
	if min := need + segHeaderLen; size < min {
		size = min // oversized record: dedicated exactly-sized segment
	}
	idx := w.segIndex + 1
	path := filepath.Join(w.opts.Dir, segName(idx))
	seg, err := createSegment(path, size)
	if err != nil {
		return err
	}
	hdr := seg.data[:segHeaderLen]
	copy(hdr[0:8], segMagic)
	binary.BigEndian.PutUint32(hdr[8:], segVersion)
	binary.BigEndian.PutUint64(hdr[12:], idx)
	binary.BigEndian.PutUint64(hdr[20:], uint64(time.Now().UnixNano()))
	w.seg, w.segIndex, w.off = seg, idx, segHeaderLen
	w.paths = append(w.paths, path)
	w.segments.Add(1)
	if r := w.opts.Retain; r > 0 && len(w.paths) > r {
		for _, old := range w.paths[:len(w.paths)-r] {
			if err := os.Remove(old); err != nil && w.opts.Logger != nil {
				w.opts.Logger.Printf("wal: retention: %v", err)
			}
		}
		w.paths = append(w.paths[:0], w.paths[len(w.paths)-r:]...)
	}
	return nil
}

// Sync flushes the active segment's dirty pages to stable storage, for
// callers that need machine-crash (not just process-crash) durability.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if w.seg == nil {
		return nil
	}
	return w.seg.sync(w.off)
}

// Close seals the active segment (truncating it to its written length) and
// releases the mapping. Idempotent; Append after Close fails cleanly.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return nil
	}
	w.failed = fmt.Errorf("wal: closed")
	var err error
	if w.seg != nil {
		err = w.seg.seal(w.off)
		w.seg = nil
	}
	return err
}

// Snapshot is the writer's operational state as published on /stats.
type Snapshot struct {
	Dir           string `json:"dir"`
	Records       uint64 `json:"records"`
	Bytes         uint64 `json:"bytes"`
	Segments      uint64 `json:"segments"`
	ActiveSegment uint64 `json:"active_segment"`
	AppendErrors  uint64 `json:"append_errors"`
	LastError     string `json:"last_error,omitempty"`
}

// Snapshot returns the current counters.
func (w *Writer) Snapshot() Snapshot {
	s := Snapshot{
		Dir:          w.opts.Dir,
		Records:      w.records.Load(),
		Bytes:        w.bytes.Load(),
		Segments:     w.segments.Load(),
		AppendErrors: w.appendErrors.Load(),
	}
	w.mu.Lock()
	s.ActiveSegment = w.segIndex
	s.LastError = w.lastErr
	w.mu.Unlock()
	return s
}

// AppendErrors returns how many appends have failed (all of them, once the
// writer is failed: the first error is sticky).
func (w *Writer) AppendErrors() uint64 { return w.appendErrors.Load() }

// segment is one preallocated, writable segment file.
type segment struct {
	f      *os.File
	data   []byte
	mapped bool
	// released is the prefix of data already dropped from the mapping, a
	// multiple of releaseBytes (or len(data) once releasing gave up).
	released int64
}

// createSegment preallocates path at size and maps it writable. On platforms
// without mmap the buffer is heap-backed and flushed at seal — recording
// still works, but a process kill there can lose buffered records.
func createSegment(path string, size int64) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: preallocate %s: %w", filepath.Base(path), err)
	}
	if mmapSupported {
		data, err := mapFile(f, size)
		if err == nil {
			return &segment{f: f, data: data, mapped: true}, nil
		}
		// Fall through to the heap-backed path (e.g. a filesystem that
		// refuses shared writable mappings).
	}
	return &segment{f: f, data: make([]byte, size)}, nil
}

// seal truncates the segment to its written length and closes it.
func (sg *segment) seal(off int64) error {
	var err error
	if sg.mapped {
		err = unmapFile(sg.data)
	} else if _, werr := sg.f.WriteAt(sg.data[:off], 0); werr != nil {
		err = werr
	}
	sg.data = nil
	if terr := sg.f.Truncate(off); err == nil {
		err = terr
	}
	if cerr := sg.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	return nil
}

// sync pushes the written prefix to stable storage.
func (sg *segment) sync(off int64) error {
	if !sg.mapped {
		if _, err := sg.f.WriteAt(sg.data[:off], 0); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	// For a shared file mapping the dirty pages live in the page cache, so
	// fsync flushes them along with the metadata.
	if err := sg.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}
