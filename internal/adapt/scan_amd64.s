#include "textflag.h"

// Shuffle masks for one 16-byte lane holding two channels of four big-endian
// 16-bit samples each. Each mask turns four of the eight samples into
// zero-extended little-endian 32-bit lanes (0x80 selects zero): evenSamples
// takes samples 0 and 2 of each channel, oddSamples samples 1 and 3, so their
// sum leaves every channel as two adjacent 32-bit half-sums. Zero extension is
// the point: samples are unsigned and a valid frame may carry 0xFFFF, which a
// signed multiply-add (VPMADDWD) would read as -1.
DATA evenSamples<>+0(SB)/8, $0x8080040580800001
DATA evenSamples<>+8(SB)/8, $0x80800C0D80800809
DATA evenSamples<>+16(SB)/8, $0x8080040580800001
DATA evenSamples<>+24(SB)/8, $0x80800C0D80800809
GLOBL evenSamples<>(SB), RODATA|NOPTR, $32

DATA oddSamples<>+0(SB)/8, $0x8080060780800203
DATA oddSamples<>+8(SB)/8, $0x80800E0F80800A0B
DATA oddSamples<>+16(SB)/8, $0x8080060780800203
DATA oddSamples<>+24(SB)/8, $0x80800E0F80800A0B
GLOBL oddSamples<>(SB), RODATA|NOPTR, $32

// func frameSumsAVX2(src *[128]byte, lim, raw *[16]uint32) (dark, total uint32)
//
// One frame of the one-word route: 16 channels of four big-endian uint16
// samples. Reads exactly src[0:128] and lim[0:16], writes exactly raw[0:16].
TEXT ·frameSumsAVX2(SB), NOSPLIT, $0-32
	MOVQ src+0(FP), SI
	MOVQ lim+8(FP), DX
	MOVQ raw+16(FP), DI
	VMOVDQU evenSamples<>(SB), Y14
	VMOVDQU oddSamples<>(SB), Y15

	// Four channels per register; after the shuffles and the add each
	// channel is two 32-bit half-sums side by side.
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPSHUFB Y14, Y0, Y4
	VPSHUFB Y15, Y0, Y0
	VPSHUFB Y14, Y1, Y5
	VPSHUFB Y15, Y1, Y1
	VPSHUFB Y14, Y2, Y6
	VPSHUFB Y15, Y2, Y2
	VPSHUFB Y14, Y3, Y7
	VPSHUFB Y15, Y3, Y3
	VPADDD  Y4, Y0, Y0
	VPADDD  Y5, Y1, Y1
	VPADDD  Y6, Y2, Y2
	VPADDD  Y7, Y3, Y3

	// The horizontal add closes the channels but interleaves the two source
	// registers per 128-bit lane (ch 0 1 4 5 | 2 3 6 7); VPERMQ restores
	// channel order.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPERMQ  $0xD8, Y0, Y0
	VPERMQ  $0xD8, Y2, Y2
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y2, 32(DI)

	// dark bit c = sign of raw[c] - lim[c], the portable loop's compare:
	// raw < 1<<18 and lim <= 1<<24, so the 32-bit difference cannot wrap.
	VPSUBD    0(DX), Y0, Y4
	VPSUBD    32(DX), Y2, Y5
	VMOVMSKPS Y4, AX
	VMOVMSKPS Y5, BX
	SHLL      $8, BX
	ORL       BX, AX
	MOVL      AX, dark+24(FP)

	// total = sum of the sixteen integrals (< 1<<22).
	VPADDD       Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, total+28(FP)

	// Leave the upper YMM halves clean, or every SSE instruction the Go
	// runtime executes next pays the AVX-SSE transition penalty.
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
