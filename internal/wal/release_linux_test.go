package wal

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mappedRSS returns the Rss of this process's mapping of path, in bytes,
// from /proc/self/smaps.
func mappedRSS(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) >= 5 && strings.Contains(fields[0], "-"):
			in = fields[len(fields)-1] == path // a mapping's header line
		case in && len(fields) == 3 && fields[0] == "Rss:":
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no mapping of %s in smaps", path)
	return 0
}

// TestAppendReleasesWrittenPages: after 32 MiB of appends into a 64 MiB
// segment, the writer maps at most the unreleased granule behind the cursor
// and the one the cursor is in, not the 32 MiB written.
func TestAppendReleasesWrittenPages(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := payloadFor(1, ctaPayloadBytes)
	record := int64(recHeaderLen + len(payload))
	for n := int64(0); n < 32<<20; n += record {
		if err := w.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !w.seg.mapped {
		t.Skip("segment fell back to the heap: nothing is mapped to release")
	}
	path, err := filepath.EvalSymlinks(filepath.Join(dir, segName(w.Snapshot().ActiveSegment)))
	if err != nil {
		t.Fatal(err)
	}
	if rss, limit := mappedRSS(t, path), 2*releaseBytes+record; rss > limit {
		t.Fatalf("active segment maps %d KiB after 32 MiB of appends, want <= %d KiB", rss>>10, limit>>10)
	}
}
