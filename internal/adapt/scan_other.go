//go:build !amd64

package adapt

// No frame kernel off amd64: the selector stays false and scan runs the
// portable loops. The stub only lets the call site compile.

func detectAVX2() bool { return false }

//hepccl:coldpath
func frameSumsAVX2(*[frameSampleBytes]byte, *[ChannelsPerASIC]uint32, *[ChannelsPerASIC]uint32) (dark, total uint32) {
	panic("adapt: AVX2 frame kernel selected on a platform without one")
}
