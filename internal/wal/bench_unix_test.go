//go:build unix

package wal

import (
	"syscall"
	"testing"
)

// minorFaults is this process's minor page-fault count so far.
func minorFaults(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return int64(ru.Minflt)
}

// BenchmarkAppend: one op appends one CTA-sized record (ctaPayloadBytes)
// into 64 MiB segments with two files retained, the
// daemon's recording configuration. minflt/op is the page-fault cost of the
// mapped append path; allocs/op must stay 0 (rotation's few allocations
// amortize to nothing over a segment of ~3,900 records).
func BenchmarkAppend(b *testing.B) {
	w, _, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 64 << 20, Retain: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := payloadFor(7, ctaPayloadBytes)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	faults := minorFaults(b)
	for i := 0; i < b.N; i++ {
		if err := w.Append(uint32(i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(minorFaults(b)-faults)/float64(b.N), "minflt/op")
}
