// Package asmleaf is the hot-closure fixture for body-less declarations: a
// hot function that calls an assembly kernel and an ordinary helper.
package asmleaf

//hepccl:hotpath
func Hot(p *[4]byte) uint32 { return kernel(p) + helper() }

// kernel has no body: it stands for a function implemented in assembly.
func kernel(p *[4]byte) uint32

func helper() uint32 { return 1 }
