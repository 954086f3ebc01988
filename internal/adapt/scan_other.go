//go:build !amd64

package adapt

// No window kernel off amd64: the selector stays false and scan runs the
// portable loops. The stub only lets the call site compile.

func detectAVX2() bool { return false }

//hepccl:coldpath
func scanFramesAVX2(win []byte, lims []uint32, want, fl uint64, out []Lit, n int) (frames, nOut int) {
	panic("adapt: AVX2 window kernel selected on a platform without one")
}
