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

// Frame layout of the one-word route: a 17-byte header, 16 channels of four
// big-endian uint16 samples, a big-endian 16-bit checksum.
#define FRAME 147
#define SAMPLES 17
#define CHECKSUM 145

// func scanFramesAVX2(win []byte, lims []uint32, want, fl uint64, out []Lit, n int) (frames, nOut int)
//
// Every load and store is inside the frame, limit block and output slots the
// loop condition just proved: win[0:147], lims[0:16], out[n:n+16].
TEXT ·scanFramesAVX2(SB), NOSPLIT, $64-112
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

	// Append the lit channels, lowest first: flat channel << 32 | excess.
	// BSF, not TZCNT: detectAVX2 does not check BMI1, and AX is non-zero.
	VMOVDQU Y0, 0(SP)
	VMOVDQU Y2, 32(SP)

lit:
	BSFL  AX, CX
	BTRL  CX, AX
	MOVL  (SP)(CX*4), BX
	SHLQ  $32, CX
	ORQ   R11, CX
	ORQ   BX, CX
	MOVQ  CX, (DI)(R13*8)
	INCQ  R13
	TESTL AX, AX
	JNZ   lit

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
