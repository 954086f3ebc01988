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

// lowBytes keeps the low byte of every 16-bit lane.
DATA lowBytes<>+0(SB)/8, $0x00FF00FF00FF00FF
DATA lowBytes<>+8(SB)/8, $0x00FF00FF00FF00FF
GLOBL lowBytes<>(SB), RODATA|NOPTR, $16

// litPerm holds one entry per 4-bit lit mask of a group of four channels.
// Each entry is four qword lanes, one per output slot: the two dword indexes
// of the slot's source lane for VPERMD, which reads only their low three
// bits, and, for the slots the group's lit channels fill, the sign bit of
// the qword, which is VPMASKMOVQ's store mask. Lit lanes go to the front in
// channel order; NO is an unused slot (indexes 0 and 1, not stored).
#define L0 $0x8000000100000000
#define L1 $0x8000000300000002
#define L2 $0x8000000500000004
#define L3 $0x8000000700000006
#define NO $0x0000000100000000
#define PERM(off, a, b, c, d) DATA litPerm<>+off(SB)/8, a; DATA litPerm<>+off+8(SB)/8, b; DATA litPerm<>+off+16(SB)/8, c; DATA litPerm<>+off+24(SB)/8, d
PERM(0, NO, NO, NO, NO)
PERM(32, L0, NO, NO, NO)
PERM(64, L1, NO, NO, NO)
PERM(96, L0, L1, NO, NO)
PERM(128, L2, NO, NO, NO)
PERM(160, L0, L2, NO, NO)
PERM(192, L1, L2, NO, NO)
PERM(224, L0, L1, L2, NO)
PERM(256, L3, NO, NO, NO)
PERM(288, L0, L3, NO, NO)
PERM(320, L1, L3, NO, NO)
PERM(352, L0, L1, L3, NO)
PERM(384, L2, L3, NO, NO)
PERM(416, L0, L2, L3, NO)
PERM(448, L1, L2, L3, NO)
PERM(480, L0, L1, L2, L3)
GLOBL litPerm<>(SB), RODATA|NOPTR, $512

// laneChannels is the channel offset of each lane of a group, << 32, and
// groupStep the step from one group to the next.
DATA laneChannels<>+0(SB)/8, $0x0000000000000000
DATA laneChannels<>+8(SB)/8, $0x0000000100000000
DATA laneChannels<>+16(SB)/8, $0x0000000200000000
DATA laneChannels<>+24(SB)/8, $0x0000000300000000
GLOBL laneChannels<>(SB), RODATA|NOPTR, $32

DATA groupStep<>+0(SB)/8, $0x0000000400000000
GLOBL groupStep<>(SB), RODATA|NOPTR, $8

// Frame layout of the one-word route: a 17-byte header, 16 channels of four
// big-endian uint16 samples, a big-endian 16-bit checksum.
#define FRAME 147
#define SAMPLES 17
#define CHECKSUM 145

// GROUP appends the lit channels among the four whose excesses are in the
// dwords of x and whose lit bits are AX >> shift & 15; Y8 holds their Lit
// channel lanes and moves on to the next group's.
#define GROUP(x, shift) \
	MOVL       AX, CX; \
	SHRL       $shift, CX; \
	ANDL       $15, CX; \
	POPCNTL    CX, BX; \
	SHLL       $5, CX; \
	VMOVDQU    (R14)(CX*1), Y10; \
	VPMOVZXDQ  x, Y4; \
	VPOR       Y8, Y4, Y4; \
	VPERMD     Y4, Y10, Y4; \
	VPMASKMOVQ Y4, Y10, (DI)(R13*8); \
	ADDQ       BX, R13; \
	VPADDQ     Y9, Y8, Y8

// func scanFramesAVX2(win []byte, lims []uint32, want, fl uint64, out []Lit, n int) (frames, nOut int)
//
// Every load and store is inside the frame, limit block and output slots the
// loop condition just proved: win[0:147], lims[0:16], out[n:n+16].
TEXT ·scanFramesAVX2(SB), NOSPLIT, $0-112
	MOVQ win_base+0(FP), SI
	MOVQ win_len+8(FP), R8
	MOVQ lims_base+24(FP), DX
	MOVQ lims_len+32(FP), R9
	MOVQ want+48(FP), R10
	MOVQ fl+56(FP), R11
	MOVQ out_base+64(FP), DI
	MOVQ out_len+72(FP), R12
	MOVQ n+88(FP), R13
	VMOVDQU evenSamples<>(SB), Y14
	VMOVDQU oddSamples<>(SB), Y15
	VMOVDQU lowBytes<>(SB), X13
	VPXOR   X12, X12, X12
	VPBROADCASTQ groupStep<>(SB), Y9
	LEAQ    litPerm<>(SB), R14

frame:
	// Room for one more whole frame, its sixteen limits and sixteen entries.
	CMPQ R8, $FRAME
	JLT  done
	CMPQ R9, $16
	JLT  done
	LEAQ 16(R13), AX
	CMPQ AX, R12
	JGT  done

	// Magic, ASIC index and event id: header bytes 0-7 as one little-endian
	// word; then the sample count.
	MOVQ 0(SI), AX
	CMPQ AX, R10
	JNE  done
	CMPB 16(SI), $4
	JNE  done

	// Four channels per register; after the shuffles and the add each
	// channel is two 32-bit half-sums side by side.
	VMOVDQU SAMPLES+0(SI), Y0
	VMOVDQU SAMPLES+32(SI), Y1
	VMOVDQU SAMPLES+64(SI), Y2
	VMOVDQU SAMPLES+96(SI), Y3
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
	// channel order. Y0 holds the integrals of channels 0-7, Y2 of 8-15.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPERMQ  $0xD8, Y0, Y0
	VPERMQ  $0xD8, Y2, Y2

	// total = sum of the sixteen integrals (< 1<<22), into BX.
	VPADDD       Y2, Y0, Y5
	VEXTRACTI128 $1, Y5, X6
	VPADDD       X6, X5, X5
	VPSHUFD      $0x4E, X5, X6
	VPADDD       X6, X5, X5
	VPSHUFD      $0xB1, X5, X6
	VPADDD       X6, X5, X5
	VMOVD        X5, BX

	// The sum of the header's eight big-endian words, into CX: 256 times the
	// bytes at even offsets plus the bytes at odd offsets, each a masked
	// byte-lane sum.
	VMOVDQU 0(SI), X6
	VPSRLW  $8, X6, X7
	VPAND   X13, X6, X6
	VPSADBW X12, X6, X6
	VPSADBW X12, X7, X7
	VPSLLQ  $8, X6, X6
	VPADDQ  X7, X6, X6
	VPSHUFD $0x4E, X6, X7
	VPADDQ  X7, X6, X6
	VMOVQ   X6, CX

	// The checksum: 1024 (the sample-count byte, 4, in a high slot) + the
	// header words + 256·total, folded end-around. The sum is below 1<<31,
	// so two folds leave it in 16 bits.
	SHLQ    $8, BX
	LEAQ    1024(CX)(BX*1), CX
	MOVWLZX CX, BX
	SHRQ    $16, CX
	ADDQ    BX, CX
	MOVWLZX CX, BX
	SHRQ    $16, CX
	ADDQ    BX, CX
	MOVWLZX CHECKSUM(SI), BX
	ROLW    $8, BX
	CMPQ    CX, BX
	JNE     done

	// excess c = raw c - lim c: raw < 1<<18 and lim is in [-1<<30, 1<<24],
	// so the 32-bit difference cannot wrap and its sign bit is "dark".
	VPSUBD    0(DX), Y0, Y0
	VPSUBD    32(DX), Y2, Y2
	VMOVMSKPS Y0, AX
	VMOVMSKPS Y2, BX
	SHLL      $8, BX
	ORL       BX, AX
	XORL      $0xFFFF, AX
	JZ        next

	// Append the lit channels in channel order, four at a time: a group's
	// four excesses widen to Lit lanes, flat channel << 32 | excess, VPERMD
	// moves the lit ones to the front and VPMASKMOVQ stores exactly those,
	// so nothing past the last lit entry is written. n advances by the
	// group's lit count; no instruction branches on a channel.
	VMOVQ        R11, X8
	VPBROADCASTQ X8, Y8
	VPADDQ       laneChannels<>(SB), Y8, Y8
	VEXTRACTI128 $1, Y0, X1
	VEXTRACTI128 $1, Y2, X3
	GROUP(X0, 0)
	GROUP(X1, 4)
	GROUP(X2, 8)
	GROUP(X3, 12)

next:
	ADDQ $FRAME, SI
	SUBQ $FRAME, R8
	ADDQ $64, DX
	SUBQ $16, R9
	ADDQ $0x10000, R10
	MOVQ $0x1000000000, BX
	ADDQ BX, R11
	JMP  frame

done:
	// Every frame taken consumed sixteen limits.
	MOVQ lims_len+32(FP), AX
	SUBQ R9, AX
	SHRQ $4, AX
	MOVQ AX, frames+96(FP)
	MOVQ R13, nOut+104(FP)

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
