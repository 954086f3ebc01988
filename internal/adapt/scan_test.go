package adapt

import (
	"testing"

	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// hostAVX2 is what init detected, read before any test flips the selector.
var hostAVX2 = useAVX2

// withKernel makes scan run the portable loops (false) or the AVX2 window
// kernel (true) for the rest of the calling test, which is skipped when the
// host has no such kernel. The selector is a package variable, so a test that
// uses this must not run in parallel with one that scans.
func withKernel(t testing.TB, avx2 bool) {
	if avx2 && !hostAVX2 {
		t.Skip("no AVX2 window kernel on this host (CPUID leaf 7 / XGETBV)")
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
	cfg := DefaultCTA()
	cfg.SamplesPerChannel = 4
	benchScan(b, cfg, ctaWireImage(b, cfg, 512, 7), 512)
}

// BenchmarkScanDense is the suppress pass alone over 512 distinct 43×43
// events at 30 % occupancy, 5–24 p.e. per lit pixel (the cta-dense-sat
// frame: about 555 lit channels per event), once per kernel. Here the lit
// channels, not the frames, dominate the kernel's cost. CI gates its
// within-run ratio avx2/portable and 0 allocs/op on both legs.
func BenchmarkScanDense(b *testing.B) {
	const distinct = 512
	cfg := DefaultCTA()
	cfg.SamplesPerChannel = 4
	rng := detector.NewRNG(23)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	px := cfg.Detection.TwoD.Rows * cfg.Detection.TwoD.Cols
	var image []byte
	for e := 0; e < distinct; e++ {
		pe := make([]grid.Value, px)
		for fl := range pe {
			if rng.Float64() < 0.30 {
				pe[fl] = grid.Value(5 + rng.Intn(20))
			}
		}
		packets, err := GenerateEvent(pe, cfg.ASICs, uint32(e), uint64(e), dig, rng)
		if err != nil {
			b.Fatal(err)
		}
		for i := range packets {
			frame, err := packets[i].Marshal()
			if err != nil {
				b.Fatal(err)
			}
			image = append(image, frame...)
		}
	}
	benchScan(b, cfg, image, distinct)
}

// benchScan runs the suppress pass over image, distinct events of cfg's
// geometry back to back, as one leg per kernel, and reports ns and lit
// channels per event.
func benchScan(b *testing.B, cfg Config, image []byte, distinct int) {
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
			lit := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ev := n % distinct
				win := image[ev*eventBytes:][:eventBytes]
				off, _, k := sup.scan(win, 0, uint32(ev), out, 0)
				if off != eventBytes {
					b.Fatalf("event %d: scanned %d of %d bytes", ev, off, eventBytes)
				}
				lit += k
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			b.ReportMetric(float64(lit)/float64(b.N), "lit/event")
		})
	}
}
