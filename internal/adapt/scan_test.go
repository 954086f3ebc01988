package adapt

import "testing"

// hostAVX2 is what init detected, read before any test flips the selector.
var hostAVX2 = useAVX2

// withKernel makes scan run the portable loops (false) or the AVX2 frame
// kernel (true) for the rest of the calling test, which is skipped when the
// host has no such kernel. The selector is a package variable, so a test that
// uses this must not run in parallel with one that scans.
func withKernel(t testing.TB, avx2 bool) {
	if avx2 && !hostAVX2 {
		t.Skip("no AVX2 frame kernel on this host (CPUID leaf 7 / XGETBV)")
	}
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = hostAVX2 })
}

// eachKernel runs f as one subtest per scan kernel: always through the
// portable loops, and through the AVX2 kernel where the host has it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	for _, avx2 := range []bool{false, true} {
		t.Run(kernelName(avx2), func(t *testing.T) {
			withKernel(t, avx2)
			f(t)
		})
	}
}

// BenchmarkScan is the suppress pass alone over the serving gate's events —
// 512 distinct CTA showers, an 8.7 MB wire image, cold — once per kernel. CI
// gates the within-run ratio avx2/portable and 0 allocs/op on both legs.
func BenchmarkScan(b *testing.B) {
	const distinct = 512
	cfg := DefaultCTA()
	cfg.SamplesPerChannel = 4
	image := ctaWireImage(b, cfg, distinct, 7)
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sup := p.Suppressor()
	out := make([]Lit, len(sup.limits)+1)
	eventBytes := len(image) / distinct
	for _, avx2 := range []bool{false, true} {
		b.Run(kernelName(avx2), func(b *testing.B) {
			withKernel(b, avx2)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ev := n % distinct
				win := image[ev*eventBytes:][:eventBytes]
				if off, _, _ := sup.scan(win, 0, uint32(ev), out, 0); off != eventBytes {
					b.Fatalf("event %d: scanned %d of %d bytes", ev, off, eventBytes)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
