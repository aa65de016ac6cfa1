//go:build amd64

#include "textflag.h"

// AVX2+FMA micro-kernels. All kernels iterate eight float64s (two ymm
// registers) per step with scalar tails, and issue VZEROUPPER before
// returning so the surrounding SSE-encoded Go code pays no transition
// penalty. Bounds are the caller's responsibility (the Go wrappers in
// vector.go/matmul.go slice operands to a common length first).

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaDot(a, b Vector) float64
TEXT ·fmaDot(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
dot_loop8:
	CMPQ AX, DX
	JGE  dot_fold
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VFMADD231PD (SI)(AX*8), Y2, Y0
	VFMADD231PD 32(SI)(AX*8), Y3, Y1
	ADDQ $8, AX
	JMP  dot_loop8
dot_fold:
	// Reduce to a scalar in X0 lane 0 BEFORE the tail: scalar VEX FMAs
	// write the xmm register and zero ymm bits 128-255, so the packed
	// accumulator must already be folded down when the tail runs.
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
dot_tail:
	CMPQ AX, CX
	JGE  dot_done
	VMOVSD (DI)(AX*8), X2
	VFMADD231SD (SI)(AX*8), X2, X0
	INCQ AX
	JMP  dot_tail
dot_done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func fmaAxpy(alpha float64, dst, u Vector)
TEXT ·fmaAxpy(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y4
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ u_base+32(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
axpy_loop8:
	CMPQ AX, DX
	JGE  axpy_tail
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y4, Y0
	VFMADD231PD 32(SI)(AX*8), Y4, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy_loop8
axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSD (DI)(AX*8), X0
	VFMADD231SD (SI)(AX*8), X4, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  axpy_tail
axpy_done:
	VZEROUPPER
	RET

// func fmaDot4(a, b0, b1, b2, b3 Vector) (s0, s1, s2, s3 float64)
TEXT ·fmaDot4(SB), NOSPLIT, $0-152
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	MOVQ b2_base+72(FP), R9
	MOVQ b3_base+96(FP), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
dot4_loop8:
	CMPQ AX, DX
	JGE  dot4_fold
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	VFMADD231PD (SI)(AX*8), Y8, Y0
	VFMADD231PD 32(SI)(AX*8), Y9, Y4
	VFMADD231PD (R8)(AX*8), Y8, Y1
	VFMADD231PD 32(R8)(AX*8), Y9, Y5
	VFMADD231PD (R9)(AX*8), Y8, Y2
	VFMADD231PD 32(R9)(AX*8), Y9, Y6
	VFMADD231PD (R10)(AX*8), Y8, Y3
	VFMADD231PD 32(R10)(AX*8), Y9, Y7
	ADDQ $8, AX
	JMP  dot4_loop8
dot4_fold:
	// Fold the odd-block accumulators and horizontally reduce each lane
	// set to a scalar BEFORE the tail (see fmaDot: scalar VEX FMAs zero
	// ymm bits 128-255 of their destination).
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPD X8, X3, X3
	VHADDPD X3, X3, X3
dot4_tail:
	CMPQ AX, CX
	JGE  dot4_done
	VMOVSD (DI)(AX*8), X8
	VFMADD231SD (SI)(AX*8), X8, X0
	VFMADD231SD (R8)(AX*8), X8, X1
	VFMADD231SD (R9)(AX*8), X8, X2
	VFMADD231SD (R10)(AX*8), X8, X3
	INCQ AX
	JMP  dot4_tail
dot4_done:
	VMOVSD X0, s0+120(FP)
	VMOVSD X1, s1+128(FP)
	VMOVSD X2, s2+136(FP)
	VMOVSD X3, s3+144(FP)
	VZEROUPPER
	RET

// func fmaAxpy4(dst, u0, u1, u2, u3 Vector, a0, a1, a2, a3 float64)
TEXT ·fmaAxpy4(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ u0_base+24(FP), SI
	MOVQ u1_base+48(FP), R8
	MOVQ u2_base+72(FP), R9
	MOVQ u3_base+96(FP), R10
	VBROADCASTSD a0+120(FP), Y4
	VBROADCASTSD a1+128(FP), Y5
	VBROADCASTSD a2+136(FP), Y6
	VBROADCASTSD a3+144(FP), Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
axpy4_loop8:
	CMPQ AX, DX
	JGE  axpy4_tail
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y4, Y0
	VFMADD231PD 32(SI)(AX*8), Y4, Y1
	VFMADD231PD (R8)(AX*8), Y5, Y0
	VFMADD231PD 32(R8)(AX*8), Y5, Y1
	VFMADD231PD (R9)(AX*8), Y6, Y0
	VFMADD231PD 32(R9)(AX*8), Y6, Y1
	VFMADD231PD (R10)(AX*8), Y7, Y0
	VFMADD231PD 32(R10)(AX*8), Y7, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy4_loop8
axpy4_tail:
	CMPQ AX, CX
	JGE  axpy4_done
	VMOVSD (DI)(AX*8), X0
	VFMADD231SD (SI)(AX*8), X4, X0
	VFMADD231SD (R8)(AX*8), X5, X0
	VFMADD231SD (R9)(AX*8), X6, X0
	VFMADD231SD (R10)(AX*8), X7, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  axpy4_tail
axpy4_done:
	VZEROUPPER
	RET

// tilemask<> is eight all-ones quadwords followed by eight zero ones: the 32
// bytes at offset 8·(8−n) mask the first n of lanes 0–3, the 32 after them
// the first n−4 of lanes 4–7.
DATA tilemask<>+0(SB)/8, $-1
DATA tilemask<>+8(SB)/8, $-1
DATA tilemask<>+16(SB)/8, $-1
DATA tilemask<>+24(SB)/8, $-1
DATA tilemask<>+32(SB)/8, $-1
DATA tilemask<>+40(SB)/8, $-1
DATA tilemask<>+48(SB)/8, $-1
DATA tilemask<>+56(SB)/8, $-1
DATA tilemask<>+64(SB)/8, $0
DATA tilemask<>+72(SB)/8, $0
DATA tilemask<>+80(SB)/8, $0
DATA tilemask<>+88(SB)/8, $0
DATA tilemask<>+96(SB)/8, $0
DATA tilemask<>+104(SB)/8, $0
DATA tilemask<>+112(SB)/8, $0
DATA tilemask<>+120(SB)/8, $0
GLOBL tilemask<>(SB), RODATA|NOPTR, $128

// TILE_ZERO clears the 4×8 accumulator block Y0–Y7.
#define TILE_ZERO \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4 \
	VXORPD Y5, Y5, Y5 \
	VXORPD Y6, Y6, Y6 \
	VXORPD Y7, Y7, Y7

// TILE_BEGIN points the cursors at step 0 of the block: AX at the strip's a
// column, R13 at the block's b row, CX counting depth down.
#define TILE_BEGIN \
	MOVQ SI, AX \
	MOVQ DX, R13 \
	MOVQ depth+56(FP), CX

// TILE_STEP is one step of the shared dimension with the b row's eight
// columns already in Y8, Y9: broadcast the four a scalars, eight FMAs,
// advance the cursors. It leaves the flags of the depth countdown.
#define TILE_STEP \
	VBROADCASTSD (AX), Y10 \
	VBROADCASTSD (AX)(R9*1), Y11 \
	VBROADCASTSD (AX)(R9*2), Y12 \
	VBROADCASTSD (AX)(R11*1), Y13 \
	VFMADD231PD Y8, Y10, Y0 \
	VFMADD231PD Y9, Y10, Y1 \
	VFMADD231PD Y8, Y11, Y2 \
	VFMADD231PD Y9, Y11, Y3 \
	VFMADD231PD Y8, Y12, Y4 \
	VFMADD231PD Y9, Y12, Y5 \
	VFMADD231PD Y8, Y13, Y6 \
	VFMADD231PD Y9, Y13, Y7 \
	ADDQ R10, AX \
	ADDQ R12, R13 \
	DECQ CX

// func fmaTile4x8(dst *float64, ldd int, a *float64, rsa, csa int, b *float64, ldb, depth, cols int, acc bool)
//
// The GEMM register tile. Over the first cols columns of a 4-row strip of
// dst (row stride ldd), eight columns at a time:
//
//	dst[r][j] = (acc ? dst[r][j] : +0) + Σ_{t<depth} a[r·rsa + t·csa] · b[t·ldb + j]
//
// The 4×8 block lives in Y0–Y7 for the whole depth loop: each step loads two
// ymm of the b row once, broadcasts four a scalars and issues eight FMAs, so
// dst is touched once per block instead of once per four steps. Every
// element receives one VFMADD231 per t, ascending, into a single
// accumulator with the operand roles fmaAxpy4 uses (acc += a·b, a in the
// second source, b in the third) — the result is fmaAxpy4's bit for bit.
// A last block of cols%8 columns runs the same steps under a lane mask:
// masked-off lanes are neither read (they load as zero) nor written. depth
// must be at least 1; strides are in elements.
TEXT ·fmaTile4x8(SB), NOSPLIT, $0-73
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ rsa+24(FP), R9
	MOVQ csa+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R12
	MOVQ cols+64(FP), BX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R12
	LEAQ (R9)(R9*2), R11         // 3·rsa
tile_block:
	CMPQ BX, $8
	JLT  tile_edge
	CMPB acc+72(FP), $0
	JNE  tile_load
	TILE_ZERO
	JMP  tile_depth
tile_load:
	LEAQ (DI)(R8*2), AX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD (AX)(R8*1), Y6
	VMOVUPD 32(AX)(R8*1), Y7
tile_depth:
	TILE_BEGIN
tile_loop:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	TILE_STEP
	JNZ  tile_loop
	LEAQ (DI)(R8*2), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R8*1)
	VMOVUPD Y7, 32(AX)(R8*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, BX
	JMP  tile_block
tile_edge:
	TESTQ BX, BX
	JZ   tile_done
	LEAQ tilemask<>+64(SB), AX
	SHLQ $3, BX
	SUBQ BX, AX
	VMOVUPD (AX), Y14            // lanes 0–3 of the last cols%8 columns
	VMOVUPD 32(AX), Y15          // lanes 4–7
	CMPB acc+72(FP), $0
	JNE  tile_mload
	TILE_ZERO
	JMP  tile_mdepth
tile_mload:
	LEAQ (DI)(R8*2), AX
	VMASKMOVPD (DI), Y14, Y0
	VMASKMOVPD 32(DI), Y15, Y1
	VMASKMOVPD (DI)(R8*1), Y14, Y2
	VMASKMOVPD 32(DI)(R8*1), Y15, Y3
	VMASKMOVPD (AX), Y14, Y4
	VMASKMOVPD 32(AX), Y15, Y5
	VMASKMOVPD (AX)(R8*1), Y14, Y6
	VMASKMOVPD 32(AX)(R8*1), Y15, Y7
tile_mdepth:
	TILE_BEGIN
tile_mloop:
	VMASKMOVPD (R13), Y14, Y8
	VMASKMOVPD 32(R13), Y15, Y9
	TILE_STEP
	JNZ  tile_mloop
	LEAQ (DI)(R8*2), AX
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)
	VMASKMOVPD Y2, Y14, (DI)(R8*1)
	VMASKMOVPD Y3, Y15, 32(DI)(R8*1)
	VMASKMOVPD Y4, Y14, (AX)
	VMASKMOVPD Y5, Y15, 32(AX)
	VMASKMOVPD Y6, Y14, (AX)(R8*1)
	VMASKMOVPD Y7, Y15, 32(AX)(R8*1)
tile_done:
	VZEROUPPER
	RET

// func fmaDotTile2x3(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, k, blocks int, acc bool)
//
// The A·Bᵀ register tile: two rows of a against `blocks` consecutive
// triples of b rows, dst[r][3·blk+c] (+)= <a_r, b_(3·blk+c)> over k
// elements. Every operand vector is loaded once for two (b) or three (a)
// FMAs, where fmaDot4 loads ten vectors per eight. Each of the six dot
// products is fmaDot4's, instruction for instruction: eight lane sums by
// k mod 8 in a low (Y0–Y2, Y6–Y8) and a high (Y3–Y5, Y9–Y11) accumulator,
// folded high into low, upper into lower 128 bits, VHADDPD, then scalar
// FMAs over the k mod 8 tail — so the sums are fmaDot4's bit for bit. With
// acc the store adds the sum to dst the way the Go loop around dot4 does
// (dst first). blocks must be at least 1; strides are in elements.
TEXT ·fmaDotTile2x3(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R12
	MOVQ k+48(FP), CX
	MOVQ blocks+56(FP), BX
	SHLQ $3, R8
	SHLQ $3, R12
	LEAQ (SI)(R9*8), R9          // a row 1
	MOVQ CX, R13
	ANDQ $-8, R13
dott_block:
	LEAQ (DX)(R12*1), R10        // b rows 1 and 2 of the triple
	LEAQ (DX)(R12*2), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ AX, AX
	TESTQ R13, R13
	JZ   dott_fold
dott_loop8:
	VMOVUPD (SI)(AX*8), Y12
	VMOVUPD (R9)(AX*8), Y13
	VMOVUPD (DX)(AX*8), Y14
	VMOVUPD (R10)(AX*8), Y15
	VFMADD231PD Y14, Y12, Y0
	VFMADD231PD Y14, Y13, Y6
	VMOVUPD (R11)(AX*8), Y14
	VFMADD231PD Y15, Y12, Y1
	VFMADD231PD Y15, Y13, Y7
	VFMADD231PD Y14, Y12, Y2
	VFMADD231PD Y14, Y13, Y8
	VMOVUPD 32(SI)(AX*8), Y12
	VMOVUPD 32(R9)(AX*8), Y13
	VMOVUPD 32(DX)(AX*8), Y14
	VMOVUPD 32(R10)(AX*8), Y15
	VFMADD231PD Y14, Y12, Y3
	VFMADD231PD Y14, Y13, Y9
	VMOVUPD 32(R11)(AX*8), Y14
	VFMADD231PD Y15, Y12, Y4
	VFMADD231PD Y15, Y13, Y10
	VFMADD231PD Y14, Y12, Y5
	VFMADD231PD Y14, Y13, Y11
	ADDQ $8, AX
	CMPQ AX, R13
	JLT  dott_loop8
dott_fold:
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	VADDPD Y5, Y2, Y2
	VADDPD Y9, Y6, Y6
	VADDPD Y10, Y7, Y7
	VADDPD Y11, Y8, Y8
	VEXTRACTF128 $1, Y0, X3
	VADDPD X3, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPD X4, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X5
	VADDPD X5, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y6, X9
	VADDPD X9, X6, X6
	VHADDPD X6, X6, X6
	VEXTRACTF128 $1, Y7, X10
	VADDPD X10, X7, X7
	VHADDPD X7, X7, X7
	VEXTRACTF128 $1, Y8, X11
	VADDPD X11, X8, X8
	VHADDPD X8, X8, X8
dott_tail:
	CMPQ AX, CX
	JGE  dott_store
	VMOVSD (SI)(AX*8), X12
	VMOVSD (R9)(AX*8), X13
	VMOVSD (DX)(AX*8), X14
	VFMADD231SD X14, X12, X0
	VFMADD231SD X14, X13, X6
	VMOVSD (R10)(AX*8), X14
	VFMADD231SD X14, X12, X1
	VFMADD231SD X14, X13, X7
	VMOVSD (R11)(AX*8), X14
	VFMADD231SD X14, X12, X2
	VFMADD231SD X14, X13, X8
	INCQ AX
	JMP  dott_tail
dott_store:
	CMPB acc+64(FP), $0
	JEQ  dott_write
	VMOVSD (DI), X3
	VMOVSD 8(DI), X4
	VMOVSD 16(DI), X5
	VMOVSD (DI)(R8*1), X9
	VMOVSD 8(DI)(R8*1), X10
	VMOVSD 16(DI)(R8*1), X11
	VADDSD X0, X3, X0
	VADDSD X1, X4, X1
	VADDSD X2, X5, X2
	VADDSD X6, X9, X6
	VADDSD X7, X10, X7
	VADDSD X8, X11, X8
dott_write:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X6, (DI)(R8*1)
	VMOVSD X7, 8(DI)(R8*1)
	VMOVSD X8, 16(DI)(R8*1)
	ADDQ $24, DI
	LEAQ (R11)(R12*1), DX
	DECQ BX
	JNZ  dott_block
	VZEROUPPER
	RET

// func fmaMul(dst, a, b Vector)
TEXT ·fmaMul(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
mul_loop8:
	CMPQ AX, DX
	JGE  mul_tail
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMULPD (R8)(AX*8), Y0, Y0
	VMULPD 32(R8)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  mul_loop8
mul_tail:
	CMPQ AX, CX
	JGE  mul_done
	VMOVSD (SI)(AX*8), X0
	VMULSD (R8)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  mul_tail
mul_done:
	VZEROUPPER
	RET

// func fmaSGDMom(w, g, v Vector, lr, mu, wd float64)
//
// Fused momentum-SGD update: v = mu*v + (g + wd*w); w -= lr*v. Eight
// float64s per iteration (two ymm banks); g is read-only, v and w are
// rewritten in the same pass, so one trip over the arena does the work of
// the three-kernel axpy chain.
TEXT ·fmaSGDMom(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ v_base+48(FP), R8
	VBROADCASTSD lr+72(FP), Y5
	VBROADCASTSD mu+80(FP), Y6
	VBROADCASTSD wd+88(FP), Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
sgd_loop8:
	CMPQ AX, DX
	JGE  sgd_tail
	VMOVUPD (DI)(AX*8), Y2      // w
	VMOVUPD 32(DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y0      // g
	VMOVUPD 32(SI)(AX*8), Y1
	VFMADD231PD Y2, Y7, Y0      // g + wd*w
	VFMADD231PD Y3, Y7, Y1
	VFMADD231PD (R8)(AX*8), Y6, Y0   // + mu*v → new v
	VFMADD231PD 32(R8)(AX*8), Y6, Y1
	VMOVUPD Y0, (R8)(AX*8)
	VMOVUPD Y1, 32(R8)(AX*8)
	VFNMADD231PD Y0, Y5, Y2     // w -= lr*v
	VFNMADD231PD Y1, Y5, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  sgd_loop8
sgd_tail:
	CMPQ AX, CX
	JGE  sgd_done
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X0
	VFMADD231SD X2, X7, X0
	VMOVSD (R8)(AX*8), X1
	VFMADD231SD X6, X1, X0
	VMOVSD X0, (R8)(AX*8)
	VFNMADD231SD X0, X5, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  sgd_tail
sgd_done:
	VZEROUPPER
	RET

// func fmaAdam(w, g, m, v Vector, lr, b1, ob1, b2, ob2, c1, c2, eps float64)
//
// Fused Adam update: m = b1*m + ob1*g; v = b2*v + ob2*g²;
// w -= lr*(m/c1)/(sqrt(v/c2)+eps). Four float64s per iteration — the
// divide/sqrt chain needs more live registers than the pure-FMA kernels,
// and at two divides plus a sqrt per lane the loop is latency-bound, not
// issue-bound, so the narrower stride costs nothing measurable.
TEXT ·fmaAdam(SB), NOSPLIT, $0-160
	MOVQ w_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ w_len+8(FP), CX
	VBROADCASTSD lr+96(FP), Y8
	VBROADCASTSD b1+104(FP), Y9
	VBROADCASTSD ob1+112(FP), Y10
	VBROADCASTSD b2+120(FP), Y11
	VBROADCASTSD ob2+128(FP), Y12
	VBROADCASTSD c1+136(FP), Y13
	VBROADCASTSD c2+144(FP), Y14
	VBROADCASTSD eps+152(FP), Y15
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
adam_loop4:
	CMPQ AX, DX
	JGE  adam_tail
	VMOVUPD (SI)(AX*8), Y0      // g
	VMOVUPD (R8)(AX*8), Y1      // m
	VMULPD Y9, Y1, Y1           // b1*m
	VFMADD231PD Y10, Y0, Y1     // + ob1*g → new m
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y2      // v
	VMULPD Y11, Y2, Y2          // b2*v
	VMULPD Y0, Y0, Y3           // g²
	VFMADD231PD Y12, Y3, Y2     // + ob2*g² → new v
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD Y13, Y1, Y4          // mhat = m/c1
	VDIVPD Y14, Y2, Y5          // vhat = v/c2
	VSQRTPD Y5, Y5
	VADDPD Y15, Y5, Y5          // sqrt(vhat) + eps
	VMULPD Y8, Y4, Y4           // lr*mhat
	VDIVPD Y5, Y4, Y4           // step
	VMOVUPD (DI)(AX*8), Y6
	VSUBPD Y4, Y6, Y6
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ $4, AX
	JMP  adam_loop4
adam_tail:
	CMPQ AX, CX
	JGE  adam_done
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R8)(AX*8), X1
	VMULSD X9, X1, X1
	VFMADD231SD X10, X0, X1
	VMOVSD X1, (R8)(AX*8)
	VMOVSD (R9)(AX*8), X2
	VMULSD X11, X2, X2
	VMULSD X0, X0, X3
	VFMADD231SD X12, X3, X2
	VMOVSD X2, (R9)(AX*8)
	VDIVSD X13, X1, X4
	VDIVSD X14, X2, X5
	VSQRTSD X5, X5, X5
	VADDSD X15, X5, X5
	VMULSD X8, X4, X4
	VDIVSD X5, X4, X4
	VMOVSD (DI)(AX*8), X6
	VSUBSD X4, X6, X6
	VMOVSD X6, (DI)(AX*8)
	INCQ AX
	JMP  adam_tail
adam_done:
	VZEROUPPER
	RET

// func fmaRelu(y, mask, x Vector)
TEXT ·fmaRelu(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ mask_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	VXORPD Y1, Y1, Y1            // zeros
	MOVQ $0x3FF0000000000000, AX // 1.0
	MOVQ AX, X2
	VBROADCASTSD X2, Y2          // ones
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
relu_loop8:
	CMPQ AX, DX
	JGE  relu_tail
	VMOVUPD (R8)(AX*8), Y0
	VMOVUPD 32(R8)(AX*8), Y4
	VCMPPD $0x1E, Y1, Y0, Y3     // x > 0 (quiet), all-ones lanes
	VCMPPD $0x1E, Y1, Y4, Y5
	VANDPD Y0, Y3, Y6            // y = x & (x > 0)
	VANDPD Y4, Y5, Y7
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	VANDPD Y2, Y3, Y6            // mask = 1 & (x > 0)
	VANDPD Y2, Y5, Y7
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	ADDQ $8, AX
	JMP  relu_loop8
relu_tail:
	CMPQ AX, CX
	JGE  relu_done
	VMOVSD (R8)(AX*8), X0
	VCMPSD $0x1E, X1, X0, X3
	VANDPD X0, X3, X6
	VMOVSD X6, (DI)(AX*8)
	VANDPD X2, X3, X6
	VMOVSD X6, (SI)(AX*8)
	INCQ AX
	JMP  relu_tail
relu_done:
	VZEROUPPER
	RET

// Box–Muller constants, one float64 (or bit pattern) each; the kernel
// broadcasts them where it uses them. The log block is math/log_amd64.s's
// archLog, the cos block math.cos (sin.go), constant for constant.
DATA bmconst<>+0x000(SB)/8, $0x000fffffffffffff // mantissa mask
DATA bmconst<>+0x008(SB)/8, $0x3fe0000000000000 // 0.5
DATA bmconst<>+0x010(SB)/8, $0x4330000000000000 // 2^52: small integer ↔ low mantissa bits
DATA bmconst<>+0x018(SB)/8, $0x43300000000003fe // 2^52 + 1022 (exponent bias − 1)
DATA bmconst<>+0x020(SB)/8, $0x3fe6a09e667f3bcd // HSqrt2
DATA bmconst<>+0x028(SB)/8, $0x4000000000000000 // 2.0
DATA bmconst<>+0x030(SB)/8, $0x3fe5555555555593 // L1
DATA bmconst<>+0x038(SB)/8, $0x3fd999999997fa04 // L2
DATA bmconst<>+0x040(SB)/8, $0x3fd2492494229359 // L3
DATA bmconst<>+0x048(SB)/8, $0x3fcc71c51d8e78af // L4
DATA bmconst<>+0x050(SB)/8, $0x3fc7466496cb03de // L5
DATA bmconst<>+0x058(SB)/8, $0x3fc39a09d078c69f // L6
DATA bmconst<>+0x060(SB)/8, $0x3fc2f112df3e5244 // L7
DATA bmconst<>+0x068(SB)/8, $0x3dea39ef35793c76 // Ln2Lo
DATA bmconst<>+0x070(SB)/8, $0x3fe62e42fee00000 // Ln2Hi
DATA bmconst<>+0x078(SB)/8, $0xc000000000000000 // -2.0
DATA bmconst<>+0x080(SB)/8, $0x401921fb54442d18 // 2π
DATA bmconst<>+0x088(SB)/8, $0x3ff45f306dc9c883 // 4/π
DATA bmconst<>+0x090(SB)/8, $0x0000000000000001 // integer 1
DATA bmconst<>+0x098(SB)/8, $0x3fe921fb40000000 // PI4A
DATA bmconst<>+0x0a0(SB)/8, $0x3e64442d00000000 // PI4B
DATA bmconst<>+0x0a8(SB)/8, $0x3ce8469898cc5170 // PI4C
DATA bmconst<>+0x0b0(SB)/8, $0x3de5d8fd1fd19ccd // _sin[0]
DATA bmconst<>+0x0b8(SB)/8, $0xbe5ae5e5a9291f5d // _sin[1]
DATA bmconst<>+0x0c0(SB)/8, $0x3ec71de3567d48a1 // _sin[2]
DATA bmconst<>+0x0c8(SB)/8, $0xbf2a01a019bfdf03 // _sin[3]
DATA bmconst<>+0x0d0(SB)/8, $0x3f8111111110f7d0 // _sin[4]
DATA bmconst<>+0x0d8(SB)/8, $0xbfc5555555555548 // _sin[5]
DATA bmconst<>+0x0e0(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA bmconst<>+0x0e8(SB)/8, $0x3e21ee9d7b4e3f05 // _cos[1]
DATA bmconst<>+0x0f0(SB)/8, $0xbe927e4f7eac4bc6 // _cos[2]
DATA bmconst<>+0x0f8(SB)/8, $0x3efa01a019c844f5 // _cos[3]
DATA bmconst<>+0x100(SB)/8, $0xbf56c16c16c14f91 // _cos[4]
DATA bmconst<>+0x108(SB)/8, $0x3fa555555555554b // _cos[5]
DATA bmconst<>+0x110(SB)/8, $0x8000000000000000 // sign bit
DATA bmconst<>+0x118(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL bmconst<>(SB), RODATA|NOPTR, $0x120

// Y = Y·s + c with s in a register: one step of a Horner chain, multiply
// then add, rounded separately like the Go source it mirrors. Clobbers Y11.
#define HORNER(c, s, Y) \
	VMULPD s, Y, Y \
	VBROADCASTSD bmconst<>+c(SB), Y11 \
	VADDPD Y11, Y, Y

// HORNER2 is HORNER on two independent accumulators (ya·sa + c, yb·sb + c).
#define HORNER2(c, sa, ya, sb, yb) \
	VMULPD sa, ya, ya \
	VMULPD sb, yb, yb \
	VBROADCASTSD bmconst<>+c(SB), Y11 \
	VADDPD Y11, ya, ya \
	VADDPD Y11, yb, yb

// func boxMuller4(dst, u1, u2 *float64, n int, mu, sigma float64)
//
// dst[i] = mu + sigma·(√(−2·log u1[i]) · cos(2π·u2[i])) for i < n, n a
// multiple of 4. Every operation is the scalar one of math.Log (archLog)
// and math.Cos, in the same order: mul, add, sub, div and sqrt only,
// nothing contracted into an FMA, so each lane is bit-identical to
// RNG.Norm. The caller guarantees 0 < u1 < 1 and 0 ≤ u2 < 1, which rules
// out log's and cos's special cases and cos's large-argument reduction.
// cos's octant branches become selects: after the odd-octant fix-up j is
// even, bit 1 of j picks the sine polynomial and bit 1 ⊕ bit 2 is the sign.
//
// The chains are long (a division, a square root and ten dependent
// polynomial steps), so bm_loop2 runs two independent groups of four lanes
// side by side, A in Y0–Y6 and B in Y7–Y10, Y12, Y14, Y15, every B
// instruction the A one on renamed registers, and parks the two square
// roots in dst while the cosines need the registers; bm_loop takes the last
// four lanes when n is not a multiple of 8. dst must not overlap u1 or u2.
TEXT ·boxMuller4(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ u1+8(FP), SI
	MOVQ u2+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD bmconst<>+0x118(SB), Y13 // 1.0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX // the lanes bm_loop2 takes
bm_loop2:
	CMPQ AX, BX
	JGE  bm_tail

	// ---- log(u1), both groups.
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y7
	VPSRLQ $52, Y0, Y1
	VPSRLQ $52, Y7, Y8
	VBROADCASTSD bmconst<>+0x010(SB), Y11
	VPOR Y11, Y1, Y1
	VPOR Y11, Y8, Y8
	VBROADCASTSD bmconst<>+0x018(SB), Y11
	VSUBPD Y11, Y1, Y1
	VSUBPD Y11, Y8, Y8                      // k
	VBROADCASTSD bmconst<>+0x000(SB), Y11
	VANDPD Y11, Y0, Y0
	VANDPD Y11, Y7, Y7
	VBROADCASTSD bmconst<>+0x008(SB), Y11
	VORPD Y11, Y0, Y0
	VORPD Y11, Y7, Y7                       // f1
	VBROADCASTSD bmconst<>+0x020(SB), Y11
	VCMPPD $0x01, Y11, Y0, Y2
	VCMPPD $0x01, Y11, Y7, Y9               // f1 < √2/2
	VANDPD Y13, Y2, Y2
	VANDPD Y13, Y9, Y9
	VSUBPD Y2, Y1, Y1
	VSUBPD Y9, Y8, Y8
	VADDPD Y13, Y2, Y2
	VADDPD Y13, Y9, Y9
	VMULPD Y2, Y0, Y0
	VMULPD Y9, Y7, Y7
	VSUBPD Y13, Y0, Y0
	VSUBPD Y13, Y7, Y7                      // f
	VBROADCASTSD bmconst<>+0x028(SB), Y2
	VBROADCASTSD bmconst<>+0x028(SB), Y9
	VADDPD Y0, Y2, Y2
	VADDPD Y7, Y9, Y9
	VDIVPD Y2, Y0, Y3
	VDIVPD Y9, Y7, Y10                      // s
	VMULPD Y3, Y3, Y4
	VMULPD Y10, Y10, Y12                    // s2
	VMULPD Y4, Y4, Y5
	VMULPD Y12, Y12, Y14                    // s4
	VBROADCASTSD bmconst<>+0x060(SB), Y6
	VBROADCASTSD bmconst<>+0x060(SB), Y15
	HORNER2(0x050, Y5, Y6, Y14, Y15)
	HORNER2(0x040, Y5, Y6, Y14, Y15)
	HORNER2(0x030, Y5, Y6, Y14, Y15)
	VMULPD Y6, Y4, Y4
	VMULPD Y15, Y12, Y12                    // t1
	VBROADCASTSD bmconst<>+0x058(SB), Y6
	VBROADCASTSD bmconst<>+0x058(SB), Y15
	HORNER2(0x048, Y5, Y6, Y14, Y15)
	HORNER2(0x038, Y5, Y6, Y14, Y15)
	VMULPD Y6, Y5, Y5
	VMULPD Y15, Y14, Y14                    // t2
	VADDPD Y5, Y4, Y4
	VADDPD Y14, Y12, Y12                    // R
	VBROADCASTSD bmconst<>+0x008(SB), Y2
	VBROADCASTSD bmconst<>+0x008(SB), Y9
	VMULPD Y0, Y2, Y2
	VMULPD Y7, Y9, Y9
	VMULPD Y0, Y2, Y2
	VMULPD Y7, Y9, Y9                       // hfsq
	VADDPD Y2, Y4, Y4
	VADDPD Y9, Y12, Y12
	VMULPD Y4, Y3, Y3
	VMULPD Y12, Y10, Y10
	VBROADCASTSD bmconst<>+0x068(SB), Y4
	VBROADCASTSD bmconst<>+0x068(SB), Y12
	VMULPD Y1, Y4, Y4
	VMULPD Y8, Y12, Y12
	VADDPD Y4, Y3, Y3
	VADDPD Y12, Y10, Y10
	VSUBPD Y3, Y2, Y2
	VSUBPD Y10, Y9, Y9
	VSUBPD Y0, Y2, Y2
	VSUBPD Y7, Y9, Y9
	VBROADCASTSD bmconst<>+0x070(SB), Y4
	VBROADCASTSD bmconst<>+0x070(SB), Y12
	VMULPD Y4, Y1, Y1
	VMULPD Y12, Y8, Y8
	VSUBPD Y2, Y1, Y1
	VSUBPD Y9, Y8, Y8                       // log u1
	VBROADCASTSD bmconst<>+0x078(SB), Y11
	VMULPD Y11, Y1, Y1
	VMULPD Y11, Y8, Y8
	VSQRTPD Y1, Y1
	VSQRTPD Y8, Y8                          // r
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y8, 32(DI)(AX*8)

	// ---- cos(2π·u2), both groups.
	VMOVUPD (DX)(AX*8), Y0
	VMOVUPD 32(DX)(AX*8), Y7
	VBROADCASTSD bmconst<>+0x080(SB), Y11
	VMULPD Y11, Y0, Y0
	VMULPD Y11, Y7, Y7                      // x
	VBROADCASTSD bmconst<>+0x088(SB), Y11
	VMULPD Y11, Y0, Y1
	VMULPD Y11, Y7, Y8
	VROUNDPD $3, Y1, Y1
	VROUNDPD $3, Y8, Y8
	VBROADCASTSD bmconst<>+0x010(SB), Y2
	VBROADCASTSD bmconst<>+0x010(SB), Y9
	VADDPD Y2, Y1, Y1
	VADDPD Y9, Y8, Y8
	VBROADCASTSD bmconst<>+0x090(SB), Y11
	VANDPD Y11, Y1, Y3
	VANDPD Y11, Y8, Y10
	VPADDQ Y3, Y1, Y1
	VPADDQ Y10, Y8, Y8                      // j even
	VSUBPD Y2, Y1, Y2
	VSUBPD Y9, Y8, Y9                       // y = j
	VBROADCASTSD bmconst<>+0x098(SB), Y11
	VMULPD Y2, Y11, Y3
	VMULPD Y9, Y11, Y10
	VSUBPD Y3, Y0, Y0
	VSUBPD Y10, Y7, Y7
	VBROADCASTSD bmconst<>+0x0a0(SB), Y11
	VMULPD Y2, Y11, Y3
	VMULPD Y9, Y11, Y10
	VSUBPD Y3, Y0, Y0
	VSUBPD Y10, Y7, Y7
	VBROADCASTSD bmconst<>+0x0a8(SB), Y11
	VMULPD Y2, Y11, Y3
	VMULPD Y9, Y11, Y10
	VSUBPD Y3, Y0, Y0
	VSUBPD Y10, Y7, Y7                      // z
	VMULPD Y0, Y0, Y2
	VMULPD Y7, Y7, Y9                       // zz
	VBROADCASTSD bmconst<>+0x0b0(SB), Y3
	VBROADCASTSD bmconst<>+0x0b0(SB), Y10
	HORNER2(0x0b8, Y2, Y3, Y9, Y10)
	HORNER2(0x0c0, Y2, Y3, Y9, Y10)
	HORNER2(0x0c8, Y2, Y3, Y9, Y10)
	HORNER2(0x0d0, Y2, Y3, Y9, Y10)
	HORNER2(0x0d8, Y2, Y3, Y9, Y10)
	VMULPD Y2, Y0, Y4
	VMULPD Y9, Y7, Y12
	VMULPD Y3, Y4, Y4
	VMULPD Y10, Y12, Y12
	VADDPD Y4, Y0, Y3
	VADDPD Y12, Y7, Y10                     // sine polynomial
	VBROADCASTSD bmconst<>+0x0e0(SB), Y4
	VBROADCASTSD bmconst<>+0x0e0(SB), Y12
	HORNER2(0x0e8, Y2, Y4, Y9, Y12)
	HORNER2(0x0f0, Y2, Y4, Y9, Y12)
	HORNER2(0x0f8, Y2, Y4, Y9, Y12)
	HORNER2(0x100, Y2, Y4, Y9, Y12)
	HORNER2(0x108, Y2, Y4, Y9, Y12)
	VMULPD Y2, Y2, Y5
	VMULPD Y9, Y9, Y14
	VMULPD Y4, Y5, Y5
	VMULPD Y12, Y14, Y14
	VBROADCASTSD bmconst<>+0x008(SB), Y4
	VBROADCASTSD bmconst<>+0x008(SB), Y12
	VMULPD Y2, Y4, Y4
	VMULPD Y9, Y12, Y12
	VSUBPD Y4, Y13, Y4
	VSUBPD Y12, Y13, Y12
	VADDPD Y5, Y4, Y4
	VADDPD Y14, Y12, Y12                    // cosine polynomial
	VPSLLQ $62, Y1, Y5
	VPSLLQ $62, Y8, Y14
	VBLENDVPD Y5, Y3, Y4, Y4
	VBLENDVPD Y14, Y10, Y12, Y12
	VPSLLQ $61, Y1, Y6
	VPSLLQ $61, Y8, Y15
	VXORPD Y6, Y5, Y5
	VXORPD Y15, Y14, Y14
	VBROADCASTSD bmconst<>+0x110(SB), Y11
	VANDPD Y11, Y5, Y5
	VANDPD Y11, Y14, Y14
	VXORPD Y5, Y4, Y4
	VXORPD Y14, Y12, Y12                    // cos x

	// ---- mu + sigma·(r·cos x)
	VMOVUPD (DI)(AX*8), Y5
	VMOVUPD 32(DI)(AX*8), Y14               // r
	VMULPD Y4, Y5, Y4
	VMULPD Y12, Y14, Y12
	VBROADCASTSD sigma+40(FP), Y11
	VMULPD Y11, Y4, Y4
	VMULPD Y11, Y12, Y12
	VBROADCASTSD mu+32(FP), Y11
	VADDPD Y11, Y4, Y4
	VADDPD Y11, Y12, Y12
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y12, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  bm_loop2

bm_tail:
	VBROADCASTSD mu+32(FP), Y14
	VBROADCASTSD sigma+40(FP), Y15
bm_loop:
	CMPQ AX, CX
	JGE  bm_done

	// ---- log(u1): frexp by bit masks, k as a float via the 2^52 trick.
	VMOVUPD (SI)(AX*8), Y0
	VPSRLQ $52, Y0, Y1                      // biased exponent (u1 > 0)
	VBROADCASTSD bmconst<>+0x010(SB), Y2
	VPOR Y2, Y1, Y1                         // 2^52 + e
	VBROADCASTSD bmconst<>+0x018(SB), Y2
	VSUBPD Y2, Y1, Y1                       // k = e − 1022
	VBROADCASTSD bmconst<>+0x000(SB), Y2
	VANDPD Y2, Y0, Y0
	VBROADCASTSD bmconst<>+0x008(SB), Y2
	VORPD Y2, Y0, Y0                        // f1 ∈ [0.5, 1)
	VBROADCASTSD bmconst<>+0x020(SB), Y2
	VCMPPD $0x01, Y2, Y0, Y2                // f1 < √2/2
	VANDPD Y13, Y2, Y2                      // 0 or 1
	VSUBPD Y2, Y1, Y1                       // k -= 1
	VADDPD Y13, Y2, Y2                      // 1 or 2
	VMULPD Y2, Y0, Y0                       // f1 *= 2
	VSUBPD Y13, Y0, Y0                      // f = f1 − 1
	VBROADCASTSD bmconst<>+0x028(SB), Y2
	VADDPD Y0, Y2, Y2                       // 2 + f
	VDIVPD Y2, Y0, Y3                       // s = f / (2 + f)
	VMULPD Y3, Y3, Y4                       // s2
	VMULPD Y4, Y4, Y5                       // s4
	VBROADCASTSD bmconst<>+0x060(SB), Y6    // L7
	HORNER(0x050, Y5, Y6)                   // L7·s4 + L5
	HORNER(0x040, Y5, Y6)                   // … + L3
	HORNER(0x030, Y5, Y6)                   // … + L1
	VMULPD Y6, Y4, Y4                       // t1 = s2·(…)
	VBROADCASTSD bmconst<>+0x058(SB), Y6    // L6
	HORNER(0x048, Y5, Y6)                   // L6·s4 + L4
	HORNER(0x038, Y5, Y6)                   // … + L2
	VMULPD Y6, Y5, Y5                       // t2 = s4·(…)
	VADDPD Y5, Y4, Y4                       // R = t1 + t2
	VBROADCASTSD bmconst<>+0x008(SB), Y2
	VMULPD Y0, Y2, Y2
	VMULPD Y0, Y2, Y2                       // hfsq = 0.5·f·f
	VADDPD Y2, Y4, Y4                       // hfsq + R
	VMULPD Y4, Y3, Y3                       // s·(hfsq + R)
	VBROADCASTSD bmconst<>+0x068(SB), Y4
	VMULPD Y1, Y4, Y4                       // k·Ln2Lo
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y2, Y2                       // hfsq − (s·(hfsq+R) + k·Ln2Lo)
	VSUBPD Y0, Y2, Y2                       // … − f
	VBROADCASTSD bmconst<>+0x070(SB), Y4
	VMULPD Y4, Y1, Y1                       // k·Ln2Hi
	VSUBPD Y2, Y1, Y1                       // log u1
	VBROADCASTSD bmconst<>+0x078(SB), Y2
	VMULPD Y2, Y1, Y1
	VSQRTPD Y1, Y12                         // r = √(−2·log u1)

	// ---- cos(2π·u2): octant j, z = x − j·π/4 in three parts.
	VMOVUPD (DX)(AX*8), Y0
	VBROADCASTSD bmconst<>+0x080(SB), Y1
	VMULPD Y1, Y0, Y0                       // x = 2π·u2
	VBROADCASTSD bmconst<>+0x088(SB), Y1
	VMULPD Y1, Y0, Y1
	VROUNDPD $3, Y1, Y1                     // j = trunc(x·4/π)
	VBROADCASTSD bmconst<>+0x010(SB), Y2
	VADDPD Y2, Y1, Y1                       // bits: 2^52 + j
	VBROADCASTSD bmconst<>+0x090(SB), Y3
	VANDPD Y3, Y1, Y3                       // j & 1
	VPADDQ Y3, Y1, Y1                       // j even: 2^52 + j
	VSUBPD Y2, Y1, Y2                       // y = j
	VBROADCASTSD bmconst<>+0x098(SB), Y3
	VMULPD Y2, Y3, Y3
	VSUBPD Y3, Y0, Y0                       // x − y·PI4A
	VBROADCASTSD bmconst<>+0x0a0(SB), Y3
	VMULPD Y2, Y3, Y3
	VSUBPD Y3, Y0, Y0                       // … − y·PI4B
	VBROADCASTSD bmconst<>+0x0a8(SB), Y3
	VMULPD Y2, Y3, Y3
	VSUBPD Y3, Y0, Y0                       // z = … − y·PI4C
	VMULPD Y0, Y0, Y2                       // zz
	VBROADCASTSD bmconst<>+0x0b0(SB), Y3    // _sin[0]
	HORNER(0x0b8, Y2, Y3)
	HORNER(0x0c0, Y2, Y3)
	HORNER(0x0c8, Y2, Y3)
	HORNER(0x0d0, Y2, Y3)
	HORNER(0x0d8, Y2, Y3)
	VMULPD Y2, Y0, Y4                       // z·zz
	VMULPD Y3, Y4, Y4                       // z·zz·(…)
	VADDPD Y4, Y0, Y3                       // sine polynomial
	VBROADCASTSD bmconst<>+0x0e0(SB), Y4    // _cos[0]
	HORNER(0x0e8, Y2, Y4)
	HORNER(0x0f0, Y2, Y4)
	HORNER(0x0f8, Y2, Y4)
	HORNER(0x100, Y2, Y4)
	HORNER(0x108, Y2, Y4)
	VMULPD Y2, Y2, Y5                       // zz·zz
	VMULPD Y4, Y5, Y5                       // zz·zz·(…)
	VBROADCASTSD bmconst<>+0x008(SB), Y4
	VMULPD Y2, Y4, Y4                       // 0.5·zz
	VSUBPD Y4, Y13, Y4                      // 1 − 0.5·zz
	VADDPD Y5, Y4, Y4                       // cosine polynomial
	VPSLLQ $62, Y1, Y5                      // bit 1 of j → sign position
	VBLENDVPD Y5, Y3, Y4, Y4                // bit 1 set: sine polynomial
	VPSLLQ $61, Y1, Y6                      // bit 2 of j → sign position
	VXORPD Y6, Y5, Y5
	VBROADCASTSD bmconst<>+0x110(SB), Y6
	VANDPD Y6, Y5, Y5                       // sign = bit 1 ⊕ bit 2
	VXORPD Y5, Y4, Y4                       // cos x

	// ---- mu + sigma·(r·cos x)
	VMULPD Y4, Y12, Y4
	VMULPD Y15, Y4, Y4
	VADDPD Y14, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  bm_loop
bm_done:
	VZEROUPPER
	RET

// func topKMask(v, add *float64, n int, floor uint64, masks *uint64)
//
// The top-k candidate pass over n elements (a positive multiple of 64):
// with add non-nil it first folds v[i] = add[i] + v[i] in place, VADDPD with
// add as the first source — the operand ADDSD's destination holds in the Go
// loop, whose NaN payload an x86 add keeps when both operands are NaN. Then
// bit i%64 of masks[i/64] is set iff the magnitude bits of v[i] (sign
// cleared, so a non-negative int64) are at least floor: greater than
// floor−1, which is −1 for floor 0. Eight elements a step, eight steps a
// word.
TEXT ·topKMask(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), DI
	MOVQ add+8(FP), SI
	MOVQ n+16(FP), R10
	MOVQ floor+24(FP), AX
	MOVQ masks+32(FP), R8
	DECQ AX
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15        // floor − 1
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14        // sign-clearing mask
	XORQ AX, AX                  // element index
	TESTQ SI, SI
	JZ   topk_word

topk_fold_word:
	XORQ R9, R9                  // the word's mask
	XORQ CX, CX                  // its next bit
topk_fold_step:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VADDPD (DI)(AX*8), Y0, Y0    // add + v
	VADDPD 32(DI)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VPAND Y14, Y0, Y0
	VPAND Y14, Y1, Y1
	VPCMPGTQ Y15, Y0, Y0         // magnitude > floor − 1
	VPCMPGTQ Y15, Y1, Y1
	VMOVMSKPD Y0, DX
	VMOVMSKPD Y1, BX
	SHLQ $4, BX
	ORQ  BX, DX
	SHLQ CL, DX
	ORQ  DX, R9
	ADDQ $8, AX
	ADDQ $8, CX
	CMPQ CX, $64
	JLT  topk_fold_step
	MOVQ R9, (R8)
	ADDQ $8, R8
	CMPQ AX, R10
	JLT  topk_fold_word
	VZEROUPPER
	RET

topk_word:
	XORQ R9, R9
	XORQ CX, CX
topk_step:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VPAND Y14, Y0, Y0
	VPAND Y14, Y1, Y1
	VPCMPGTQ Y15, Y0, Y0
	VPCMPGTQ Y15, Y1, Y1
	VMOVMSKPD Y0, DX
	VMOVMSKPD Y1, BX
	SHLQ $4, BX
	ORQ  BX, DX
	SHLQ CL, DX
	ORQ  DX, R9
	ADDQ $8, AX
	ADDQ $8, CX
	CMPQ CX, $64
	JLT  topk_step
	MOVQ R9, (R8)
	ADDQ $8, R8
	CMPQ AX, R10
	JLT  topk_word
	VZEROUPPER
	RET

// func fmaAdd(dst, a, b Vector)
TEXT ·fmaAdd(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
add_loop8:
	CMPQ AX, DX
	JGE  add_tail
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VADDPD (R8)(AX*8), Y0, Y0    // a + b: a is the first source
	VADDPD 32(R8)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  add_loop8
add_tail:
	CMPQ AX, CX
	JGE  add_done
	VMOVSD (SI)(AX*8), X0
	VADDSD (R8)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  add_tail
add_done:
	VZEROUPPER
	RET

// LayerNorm kernels. Four consecutive rows sit in the four lanes of one
// ymm for the per-row sums, so each lane adds its row's terms in column
// order exactly like the Go loop; the elementwise passes then run along
// each row with the row's statistics broadcast. Every operation rounds on
// its own (no FMA), and each commutative one takes its operands in the
// order the Go 1.24 build of the portable loop (layers.go) puts them in
// the register, which decides which payload a NaN + NaN keeps.
//
// GATHER2 loads columns j = AX and j+1 of rows r0..r3 into lo and hi
// (lane i = row i); GATHER1 loads column j alone. Both clobber Y1 and Y2.
#define GATHER2(r0, r1, r2, r3, lo, hi) \
	VMOVUPD (r0)(AX*8), X1 \
	VINSERTF128 $1, (r2)(AX*8), Y1, Y1 \
	VMOVUPD (r1)(AX*8), X2 \
	VINSERTF128 $1, (r3)(AX*8), Y2, Y2 \
	VUNPCKLPD Y2, Y1, lo \
	VUNPCKHPD Y2, Y1, hi

#define GATHER1(r0, r1, r2, r3, v) \
	VMOVSD (r0)(AX*8), X1 \
	VMOVHPD (r1)(AX*8), X1, X1 \
	VMOVSD (r2)(AX*8), X2 \
	VMOVHPD (r3)(AX*8), X2, X2 \
	VINSERTF128 $1, X2, Y1, v

// func layerNorm4(y, xhat, invStd, x, gain, bias *float64, n int, eps float64)
TEXT ·layerNorm4(SB), NOSPLIT, $0-64
	MOVQ x+24(FP), R10
	MOVQ n+48(FP), CX
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	MOVQ CX, DX
	ANDQ $-2, DX
	VCVTSI2SDQ CX, X5, X5
	VBROADCASTSD X5, Y5          // n
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
ln_sum2:                             // Σ x, column order
	CMPQ AX, DX
	JGE  ln_sum1
	GATHER2(R10, R11, R12, R13, Y3, Y4)
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y0, Y0
	ADDQ $2, AX
	JMP  ln_sum2
ln_sum1:
	CMPQ AX, CX
	JGE  ln_mean
	GATHER1(R10, R11, R12, R13, Y3)
	VADDPD Y3, Y0, Y0
ln_mean:
	VDIVPD Y5, Y0, Y6            // mu = Σ x / n
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
ln_var2:                             // Σ (x − mu)², column order
	CMPQ AX, DX
	JGE  ln_var1
	GATHER2(R10, R11, R12, R13, Y3, Y4)
	VSUBPD Y6, Y3, Y3
	VMULPD Y3, Y3, Y3
	VADDPD Y3, Y0, Y0
	VSUBPD Y6, Y4, Y4
	VMULPD Y4, Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ $2, AX
	JMP  ln_var2
ln_var1:
	CMPQ AX, CX
	JGE  ln_inv
	GATHER1(R10, R11, R12, R13, Y3)
	VSUBPD Y6, Y3, Y3
	VMULPD Y3, Y3, Y3
	VADDPD Y3, Y0, Y0
ln_inv:
	VDIVPD Y5, Y0, Y0            // var = Σ / n
	VBROADCASTSD eps+56(FP), Y1
	VADDPD Y1, Y0, Y0            // var + eps
	VSQRTPD Y0, Y0
	MOVQ $0x3FF0000000000000, BX // 1.0
	VMOVQ BX, X1
	VBROADCASTSD X1, Y1
	VDIVPD Y0, Y1, Y7            // inv = 1 / sqrt(var + eps)
	MOVQ xhat+8(FP), R8
	TESTQ R8, R8
	JZ   ln_rows
	MOVQ invStd+16(FP), R9
	VMOVUPD Y7, (R9)
ln_rows:
	MOVQ y+0(FP), DI
	MOVQ gain+32(FP), SI
	MOVQ bias+40(FP), BX
	MOVQ CX, R12
	ANDQ $-8, R12
	MOVQ $4, R9
ln_row:                              // lane 0 of Y6/Y7 is this row's
	VBROADCASTSD X6, Y8          // mu
	VBROADCASTSD X7, Y9          // inv
	XORQ AX, AX
ln_e8:
	CMPQ AX, R12
	JGE  ln_e1
	VMOVUPD (R10)(AX*8), Y1
	VMOVUPD 32(R10)(AX*8), Y2
	VSUBPD Y8, Y1, Y1            // x − mu
	VSUBPD Y8, Y2, Y2
	VMULPD Y9, Y1, Y1            // h = (x − mu)·inv
	VMULPD Y9, Y2, Y2
	TESTQ R8, R8
	JZ   ln_e8y
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD Y2, 32(R8)(AX*8)
ln_e8y:
	VMULPD (SI)(AX*8), Y1, Y1    // h·g
	VMULPD 32(SI)(AX*8), Y2, Y2
	VADDPD (BX)(AX*8), Y1, Y1    // h·g + b
	VADDPD 32(BX)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  ln_e8
ln_e1:
	CMPQ AX, CX
	JGE  ln_next
	VMOVSD (R10)(AX*8), X1
	VSUBSD X8, X1, X1
	VMULSD X9, X1, X1
	TESTQ R8, R8
	JZ   ln_e1y
	VMOVSD X1, (R8)(AX*8)
ln_e1y:
	VMULSD (SI)(AX*8), X1, X1
	VADDSD (BX)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  ln_e1
ln_next:
	LEAQ (R10)(CX*8), R10
	LEAQ (DI)(CX*8), DI
	TESTQ R8, R8
	JZ   ln_rot
	LEAQ (R8)(CX*8), R8
ln_rot:
	VPERMPD $0x39, Y6, Y6        // next row's statistics into lane 0
	VPERMPD $0x39, Y7, Y7
	DECQ R9
	JNZ  ln_row
	VZEROUPPER
	RET

// func layerNormGrad4(dx, dy, xhat, invStd, gain, dg, db *float64, n int)
TEXT ·layerNormGrad4(SB), NOSPLIT, $0-64
	MOVQ dy+8(FP), R10
	MOVQ xhat+16(FP), R8
	MOVQ n+56(FP), CX
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), BX
	LEAQ (BX)(CX*8), DX
	// dg += dy·xhat and db += dy, four columns at a time, the four rows
	// in row order (the Go loop's dg[j] = dy·xhat + dg[j], db[j] += dy).
	MOVQ dg+40(FP), SI
	MOVQ db+48(FP), DI
	MOVQ CX, R14
	ANDQ $-4, R14
	XORQ AX, AX
lng_col4:
	CMPQ AX, R14
	JGE  lng_col1
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMULPD (R10)(AX*8), Y2, Y2
	VADDPD Y0, Y2, Y0
	VADDPD (R10)(AX*8), Y1, Y1
	VMOVUPD (R9)(AX*8), Y2
	VMULPD (R11)(AX*8), Y2, Y2
	VADDPD Y0, Y2, Y0
	VADDPD (R11)(AX*8), Y1, Y1
	VMOVUPD (BX)(AX*8), Y2
	VMULPD (R12)(AX*8), Y2, Y2
	VADDPD Y0, Y2, Y0
	VADDPD (R12)(AX*8), Y1, Y1
	VMOVUPD (DX)(AX*8), Y2
	VMULPD (R13)(AX*8), Y2, Y2
	VADDPD Y0, Y2, Y0
	VADDPD (R13)(AX*8), Y1, Y1
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  lng_col4
lng_col1:
	CMPQ AX, CX
	JGE  lng_sums
	VMOVSD (SI)(AX*8), X0
	VMOVSD (DI)(AX*8), X1
	VMOVSD (R8)(AX*8), X2
	VMULSD (R10)(AX*8), X2, X2
	VADDSD X0, X2, X0
	VADDSD (R10)(AX*8), X1, X1
	VMOVSD (R9)(AX*8), X2
	VMULSD (R11)(AX*8), X2, X2
	VADDSD X0, X2, X0
	VADDSD (R11)(AX*8), X1, X1
	VMOVSD (BX)(AX*8), X2
	VMULSD (R12)(AX*8), X2, X2
	VADDSD X0, X2, X0
	VADDSD (R12)(AX*8), X1, X1
	VMOVSD (DX)(AX*8), X2
	VMULSD (R13)(AX*8), X2, X2
	VADDSD X0, X2, X0
	VADDSD (R13)(AX*8), X1, X1
	VMOVSD X0, (SI)(AX*8)
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  lng_col1
lng_sums:
	// Per row, in the lanes: s1 = Σ dxhat, s2 = Σ dxhat·xhat with
	// dxhat = g[j]·dy (this loop's operand order).
	MOVQ gain+32(FP), SI
	MOVQ CX, R14
	ANDQ $-2, R14
	VXORPD Y0, Y0, Y0
	VXORPD Y8, Y8, Y8
	XORQ AX, AX
lng_sum2:
	CMPQ AX, R14
	JGE  lng_sum1
	GATHER2(R10, R11, R12, R13, Y3, Y4)
	GATHER2(R8, R9, BX, DX, Y5, Y6)
	VBROADCASTSD (SI)(AX*8), Y7
	VMULPD Y3, Y7, Y3            // dxhat = g·dy
	VADDPD Y3, Y0, Y0
	VMULPD Y5, Y3, Y5            // dxhat·xhat
	VADDPD Y5, Y8, Y8
	VBROADCASTSD 8(SI)(AX*8), Y7
	VMULPD Y4, Y7, Y4
	VADDPD Y4, Y0, Y0
	VMULPD Y6, Y4, Y6
	VADDPD Y6, Y8, Y8
	ADDQ $2, AX
	JMP  lng_sum2
lng_sum1:
	CMPQ AX, CX
	JGE  lng_rows
	GATHER1(R10, R11, R12, R13, Y3)
	GATHER1(R8, R9, BX, DX, Y5)
	VBROADCASTSD (SI)(AX*8), Y7
	VMULPD Y3, Y7, Y3
	VADDPD Y3, Y0, Y0
	VMULPD Y5, Y3, Y5
	VADDPD Y5, Y8, Y8
lng_rows:
	// dx = (n·dxhat − s1 − xhat·s2)·(inv/n), dxhat = dy·g (this loop's
	// operand order), one row at a time.
	VCVTSI2SDQ CX, X5, X5
	VBROADCASTSD X5, Y5          // n
	MOVQ invStd+24(FP), R9
	VMOVUPD (R9), Y9
	VDIVPD Y5, Y9, Y9            // inv / n
	MOVQ dx+0(FP), DI
	MOVQ CX, R12
	ANDQ $-4, R12
	MOVQ $4, R9
lng_row:
	VBROADCASTSD X0, Y10         // s1
	VBROADCASTSD X8, Y11         // s2
	VBROADCASTSD X9, Y12         // inv / n
	XORQ AX, AX
lng_e4:
	CMPQ AX, R12
	JGE  lng_e1
	VMOVUPD (R10)(AX*8), Y1
	VMULPD (SI)(AX*8), Y1, Y1    // dxhat = dy·g
	VMULPD Y5, Y1, Y1            // dxhat·n
	VSUBPD Y10, Y1, Y1
	VMOVUPD (R8)(AX*8), Y2
	VMULPD Y11, Y2, Y2           // xhat·s2
	VSUBPD Y2, Y1, Y1
	VMULPD Y12, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  lng_e4
lng_e1:
	CMPQ AX, CX
	JGE  lng_next
	VMOVSD (R10)(AX*8), X1
	VMULSD (SI)(AX*8), X1, X1
	VMULSD X5, X1, X1
	VSUBSD X10, X1, X1
	VMOVSD (R8)(AX*8), X2
	VMULSD X11, X2, X2
	VSUBSD X2, X1, X1
	VMULSD X12, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  lng_e1
lng_next:
	LEAQ (R10)(CX*8), R10
	LEAQ (R8)(CX*8), R8
	LEAQ (DI)(CX*8), DI
	VPERMPD $0x39, Y0, Y0        // next row's sums into lane 0
	VPERMPD $0x39, Y8, Y8
	VPERMPD $0x39, Y9, Y9
	DECQ R9
	JNZ  lng_row
	VZEROUPPER
	RET

// Window offsets of the four lanes' first elements: the unpacks below
// leave the windows of a step in the order 0, 2, 1, 3.
DATA poolidx<>+0x00(SB)/8, $0
DATA poolidx<>+0x08(SB)/8, $4
DATA poolidx<>+0x10(SB)/8, $2
DATA poolidx<>+0x18(SB)/8, $6
GLOBL poolidx<>(SB), RODATA|NOPTR, $32

// func maxPool4(y *float64, arg *int, x *float64, rows, c, h, w int)
//
// Four 2×2 windows per step: two 8-element loads from each of the two
// input rows, unpacked into the windows' four elements in scan order.
// Each later element replaces the running best where it compares greater
// (ordered, quiet: a NaN never wins and a NaN best is never replaced), so
// ties, NaN and −Inf keep the Go loop's winner; the index follows the
// same masks.
TEXT ·maxPool4(SB), NOSPLIT, $0-56
	MOVQ y+0(FP), DI
	MOVQ arg+8(FP), R8
	MOVQ x+16(FP), R10
	MOVQ rows+24(FP), R9
	MOVQ w+48(FP), CX
	MOVQ CX, DX
	SHLQ $3, DX                  // input row stride in bytes
	VMOVDQU poolidx<>(SB), Y12
	MOVQ $1, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13        // +1: top right
	VMOVQ CX, X14
	VPBROADCASTQ X14, Y14        // +w: bottom left
	VPADDQ Y13, Y14, Y15         // +w+1: bottom right
	MOVQ $8, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11        // next step's first elements
mp_sample:
	XORQ R13, R13                // first index of the channel's plane
	MOVQ c+32(FP), R11
mp_chan:
	MOVQ R13, BX                 // first index of the window row
	MOVQ h+40(FP), R12
	SHRQ $1, R12
mp_row:
	LEAQ (R10)(BX*8), SI
	VMOVQ BX, X8
	VPBROADCASTQ X8, Y8
	VPADDQ Y12, Y8, Y8
	MOVQ CX, AX
	SHRQ $3, AX                  // (w/2)/4 steps
mp_step:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD (SI)(DX*1), Y2
	VMOVUPD 32(SI)(DX*1), Y3
	VUNPCKLPD Y1, Y0, Y4         // top left: the seed
	VUNPCKHPD Y1, Y0, Y5         // top right
	VUNPCKLPD Y3, Y2, Y6         // bottom left
	VUNPCKHPD Y3, Y2, Y7         // bottom right
	VCMPPD $0x1E, Y4, Y5, Y0     // top right > best
	VBLENDVPD Y0, Y5, Y4, Y4
	VCMPPD $0x1E, Y4, Y6, Y1
	VBLENDVPD Y1, Y6, Y4, Y4
	VCMPPD $0x1E, Y4, Y7, Y2
	VBLENDVPD Y2, Y7, Y4, Y4
	VPERMPD $0xD8, Y4, Y4        // windows back in order
	VMOVUPD Y4, (DI)
	ADDQ $32, DI
	TESTQ R8, R8
	JZ   mp_next
	VPADDQ Y13, Y8, Y5
	VBLENDVPD Y0, Y5, Y8, Y3
	VPADDQ Y14, Y8, Y6
	VBLENDVPD Y1, Y6, Y3, Y3
	VPADDQ Y15, Y8, Y7
	VBLENDVPD Y2, Y7, Y3, Y3
	VPERMPD $0xD8, Y3, Y3
	VMOVDQU Y3, (R8)
	ADDQ $32, R8
mp_next:
	VPADDQ Y11, Y8, Y8
	ADDQ $64, SI
	DECQ AX
	JNZ  mp_step
	LEAQ (BX)(CX*2), BX          // two input rows down
	DECQ R12
	JNZ  mp_row
	MOVQ h+40(FP), SI
	IMULQ CX, SI
	ADDQ SI, R13                 // next plane
	DECQ R11
	JNZ  mp_chan
	LEAQ (R10)(R13*8), R10       // next sample
	DECQ R9
	JNZ  mp_sample
	VZEROUPPER
	RET

// Constants of uniformPairs4: the lanes' offsets from the state word (odd
// and even multiples of SplitMix64's increment γ), the step 8γ, the two
// mix multipliers split into 32-bit halves, and the conversion constants.
DATA upconst<>+0x00(SB)/8, $0x9e3779b97f4a7c15 // 1γ
DATA upconst<>+0x08(SB)/8, $0xdaa66d2c7ddf743f // 3γ
DATA upconst<>+0x10(SB)/8, $0x1715609f7c746c69 // 5γ
DATA upconst<>+0x18(SB)/8, $0x538454127b096493 // 7γ
DATA upconst<>+0x20(SB)/8, $0x3c6ef372fe94f82a // 2γ
DATA upconst<>+0x28(SB)/8, $0x78dde6e5fd29f054 // 4γ
DATA upconst<>+0x30(SB)/8, $0xb54cda58fbbee87e // 6γ
DATA upconst<>+0x38(SB)/8, $0xf1bbcdcbfa53e0a8 // 8γ
DATA upconst<>+0x40(SB)/8, $0xf1bbcdcbfa53e0a8 // step: 8γ
DATA upconst<>+0x48(SB)/8, $0x000000001ce4e5b9 // low half of 0xbf58476d1ce4e5b9
DATA upconst<>+0x50(SB)/8, $0x00000000bf58476d // its high half
DATA upconst<>+0x58(SB)/8, $0x00000000133111eb // low half of 0x94d049bb133111eb
DATA upconst<>+0x60(SB)/8, $0x0000000094d049bb // its high half
DATA upconst<>+0x68(SB)/8, $0x00000000ffffffff // low 32 bits
DATA upconst<>+0x70(SB)/8, $0x4330000000000000 // 2^52: small integer ↔ low mantissa bits
DATA upconst<>+0x78(SB)/8, $0x41f0000000000000 // 2^32
DATA upconst<>+0x80(SB)/8, $0x3ca0000000000000 // 2^-53
GLOBL upconst<>(SB), RODATA|NOPTR, $0x88

// MUL64(c, y) is y *= c on four uint64 lanes: AVX2 multiplies 32-bit
// halves only, so y·c mod 2^64 = yl·cl + ((yh·cl + yl·ch) << 32), with cl
// and ch in the low halves of Y13 and Y12 (c = 1) or Y11 and Y10 (c = 2).
#define MUL64(cl, ch, y) \
	VPMULUDQ cl, y, Y4 \
	VPSRLQ $32, y, Y3 \
	VPMULUDQ cl, Y3, Y3 \
	VPMULUDQ ch, y, Y5 \
	VPADDQ Y3, Y5, Y5 \
	VPSLLQ $32, Y5, Y5 \
	VPADDQ Y5, Y4, y

// UNIFORM(s, y) is y = unit(mix(s)) on four lanes, SplitMix64's output
// function and Float64's mapping: x = mix(s) >> 11 < 2^53 is split into
// its high 21 and low 32 bits, each converted exactly through the 2^52
// trick, and (hi·2^32 + lo)·2^-53 is exact at every step — Go's
// float64(x) / (1 << 53). Leaves x in Y5 for the caller's zero test.
#define UNIFORM(s, y) \
	VPSRLQ $30, s, Y3 \
	VPXOR s, Y3, y \
	MUL64(Y13, Y12, y) \
	VPSRLQ $27, y, Y3 \
	VPXOR y, Y3, y \
	MUL64(Y11, Y10, y) \
	VPSRLQ $31, y, Y3 \
	VPXOR y, Y3, y \
	VPSRLQ $11, y, y \
	VMOVDQU y, Y5 \
	VPSRLQ $32, y, Y3 \
	VPAND Y9, y, y \
	VPOR Y8, Y3, Y3 \
	VPOR Y8, y, y \
	VSUBPD Y8, Y3, Y3 \
	VSUBPD Y8, y, y \
	VMULPD Y7, Y3, Y3 \
	VADDPD y, Y3, y \
	VMULPD Y15, y, y

// func uniformPairs4(u1, u2 *float64, n int, s uint64) int
//
// For i < n, a multiple of 4, u1[i] = unit(mix(s + (2i+1)γ)) and
// u2[i] = unit(mix(s + (2i+2)γ)): sample i's two draws of Norm from state
// s when no earlier u1 was 0. It returns the lowest i whose u1 is 0, or n;
// the pairs from a returned i on are not Norm's, and the caller draws them
// again.
TEXT ·uniformPairs4(SB), NOSPLIT, $0-40
	MOVQ u1+0(FP), DI
	MOVQ u2+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ s+24(FP), AX
	MOVQ AX, X0
	VPBROADCASTQ X0, Y0
	VMOVDQU upconst<>+0x20(SB), Y1
	VPADDQ Y0, Y1, Y1                // even-draw states
	VMOVDQU upconst<>+0x00(SB), Y2
	VPADDQ Y2, Y0, Y0                // odd-draw states
	VPBROADCASTQ upconst<>+0x40(SB), Y14
	VPBROADCASTQ upconst<>+0x48(SB), Y13
	VPBROADCASTQ upconst<>+0x50(SB), Y12
	VPBROADCASTQ upconst<>+0x58(SB), Y11
	VPBROADCASTQ upconst<>+0x60(SB), Y10
	VPBROADCASTQ upconst<>+0x68(SB), Y9
	VPBROADCASTQ upconst<>+0x70(SB), Y8
	VPBROADCASTQ upconst<>+0x78(SB), Y7
	VPBROADCASTQ upconst<>+0x80(SB), Y15
	VPXOR Y6, Y6, Y6
	XORQ BX, BX
up_loop:
	CMPQ BX, CX
	JGE  up_done
	UNIFORM(Y0, Y2)
	VMOVUPD Y2, (DI)(BX*8)
	VPCMPEQQ Y6, Y5, Y5
	VMOVMSKPD Y5, DX                 // lanes whose u1 is 0
	UNIFORM(Y1, Y2)
	VMOVUPD Y2, (SI)(BX*8)
	TESTQ DX, DX
	JNZ  up_zero
	VPADDQ Y14, Y0, Y0
	VPADDQ Y14, Y1, Y1
	ADDQ $4, BX
	JMP  up_loop
up_zero:
	BSFQ DX, DX
	ADDQ DX, BX
up_done:
	MOVQ BX, ret+32(FP)
	VZEROUPPER
	RET
