//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA inner-loop kernels, and pairHeadAVX512, the pair head at
// AVX-512F width (see kernels_amd64.go). Conventions shared by every routine:
//
//   - Lengths come from the FIRST slice argument (the destination for the
//     in-place kernels, the probe row for the dot kernels); the Go wrappers
//     in matrix.go/layers.go guarantee every other slice is at least that
//     long, mirroring the generic kernels' reslicing.
//   - All loads/stores are unaligned (VMOVUPD): matrix rows start at
//     arbitrary offsets inside workspace arenas.
//   - Multiply-accumulate uses FMA (one rounding), so axpy/axpy4/dot/dot4
//     differ from the generic two-rounding loops by ulps — covered by the
//     tolerance gates in kernels_simd_test.go. addBiasReLU and reluMask use
//     only adds, ordered compares and bitmasks, so they are bit-identical
//     to the generic loops (VMAXPD/VCMPPD with the zero operand in the
//     second-source slot reproduces the scalar `v > 0` branch exactly,
//     including NaN -> 0 and -0 -> +0).
//   - Go assembly reverses Intel operand order: VFMADD231PD x, a, acc
//     computes acc += a*x.
//
// func axpyAVX2(dst []float64, a float64, x []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+32(FP), SI
	VBROADCASTSD a+24(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

axpy_loop16:
	CMPQ AX, DX
	JGE  axpy_head4
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD 64(DI)(AX*8), Y6
	VMOVUPD 96(DI)(AX*8), Y7
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VFMADD231PD Y1, Y0, Y4
	VFMADD231PD Y2, Y0, Y5
	VMOVUPD 64(SI)(AX*8), Y1
	VMOVUPD 96(SI)(AX*8), Y2
	VFMADD231PD Y1, Y0, Y6
	VFMADD231PD Y2, Y0, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  axpy_loop16

axpy_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

axpy_loop4:
	CMPQ AX, DX
	JGE  axpy_tail
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y1
	VFMADD231PD Y1, Y0, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy_loop4

axpy_tail:
	CMPQ AX, CX
	JGE  axpy_done
	VMOVSD (DI)(AX*8), X4
	VMOVSD (SI)(AX*8), X1
	VFMADD231SD X1, X0, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX2(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	MOVQ b2_base+72(FP), R9
	MOVQ b3_base+96(FP), R10
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

axpy4_loop16:
	CMPQ AX, DX
	JGE  axpy4_head4
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	VMOVUPD 64(DI)(AX*8), Y10
	VMOVUPD 96(DI)(AX*8), Y11
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VFMADD231PD Y4, Y0, Y8
	VFMADD231PD Y5, Y0, Y9
	VFMADD231PD Y6, Y0, Y10
	VFMADD231PD Y7, Y0, Y11
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y5
	VMOVUPD 64(R8)(AX*8), Y6
	VMOVUPD 96(R8)(AX*8), Y7
	VFMADD231PD Y4, Y1, Y8
	VFMADD231PD Y5, Y1, Y9
	VFMADD231PD Y6, Y1, Y10
	VFMADD231PD Y7, Y1, Y11
	VMOVUPD (R9)(AX*8), Y4
	VMOVUPD 32(R9)(AX*8), Y5
	VMOVUPD 64(R9)(AX*8), Y6
	VMOVUPD 96(R9)(AX*8), Y7
	VFMADD231PD Y4, Y2, Y8
	VFMADD231PD Y5, Y2, Y9
	VFMADD231PD Y6, Y2, Y10
	VFMADD231PD Y7, Y2, Y11
	VMOVUPD (R10)(AX*8), Y4
	VMOVUPD 32(R10)(AX*8), Y5
	VMOVUPD 64(R10)(AX*8), Y6
	VMOVUPD 96(R10)(AX*8), Y7
	VFMADD231PD Y4, Y3, Y8
	VFMADD231PD Y5, Y3, Y9
	VFMADD231PD Y6, Y3, Y10
	VFMADD231PD Y7, Y3, Y11
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	VMOVUPD Y10, 64(DI)(AX*8)
	VMOVUPD Y11, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  axpy4_loop16

axpy4_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

axpy4_loop4:
	CMPQ AX, DX
	JGE  axpy4_tail
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD (SI)(AX*8), Y4
	VFMADD231PD Y4, Y0, Y8
	VMOVUPD (R8)(AX*8), Y5
	VFMADD231PD Y5, Y1, Y8
	VMOVUPD (R9)(AX*8), Y6
	VFMADD231PD Y6, Y2, Y8
	VMOVUPD (R10)(AX*8), Y7
	VFMADD231PD Y7, Y3, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy4_loop4

axpy4_tail:
	CMPQ AX, CX
	JGE  axpy4_done
	VMOVSD (DI)(AX*8), X8
	VMOVSD (SI)(AX*8), X4
	VFMADD231SD X4, X0, X8
	VMOVSD (R8)(AX*8), X5
	VFMADD231SD X5, X1, X8
	VMOVSD (R9)(AX*8), X6
	VFMADD231SD X6, X2, X8
	VMOVSD (R10)(AX*8), X7
	VFMADD231SD X7, X3, X8
	VMOVSD X8, (DI)(AX*8)
	INCQ AX
	JMP  axpy4_tail

axpy4_done:
	VZEROUPPER
	RET

// func dotAVX2(a, b []float64) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	VXORPD Y8, Y8, Y8
	VXORPD Y12, Y12, Y12
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

dot_loop8:
	CMPQ AX, DX
	JGE  dot_head4
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD 32(R8)(AX*8), Y3
	VFMADD231PD Y2, Y0, Y8
	VFMADD231PD Y3, Y1, Y12
	ADDQ $8, AX
	JMP  dot_loop8

dot_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

dot_loop4:
	CMPQ AX, DX
	JGE  dot_fold
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (R8)(AX*8), Y2
	VFMADD231PD Y2, Y0, Y8
	ADDQ $4, AX
	JMP  dot_loop4

dot_fold:
	VADDPD Y12, Y8, Y8
	VEXTRACTF128 $1, Y8, X4
	VADDPD X4, X8, X8
	VHADDPD X8, X8, X8

dot_tail:
	CMPQ AX, CX
	JGE  dot_done
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R8)(AX*8), X2
	VFMADD231SD X2, X0, X8
	INCQ AX
	JMP  dot_tail

dot_done:
	VMOVSD X8, ret+48(FP)
	VZEROUPPER
	RET

// func dot4AVX2(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64)
TEXT ·dot4AVX2(SB), NOSPLIT, $0-152
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

dot4_loop8:
	CMPQ AX, DX
	JGE  dot4_head4
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD 32(R8)(AX*8), Y3
	VFMADD231PD Y2, Y0, Y8
	VFMADD231PD Y3, Y1, Y12
	VMOVUPD (R9)(AX*8), Y4
	VMOVUPD 32(R9)(AX*8), Y5
	VFMADD231PD Y4, Y0, Y9
	VFMADD231PD Y5, Y1, Y13
	VMOVUPD (R10)(AX*8), Y6
	VMOVUPD 32(R10)(AX*8), Y7
	VFMADD231PD Y6, Y0, Y10
	VFMADD231PD Y7, Y1, Y14
	VMOVUPD (R11)(AX*8), Y2
	VMOVUPD 32(R11)(AX*8), Y3
	VFMADD231PD Y2, Y0, Y11
	VFMADD231PD Y3, Y1, Y15
	ADDQ $8, AX
	JMP  dot4_loop8

dot4_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

dot4_loop4:
	CMPQ AX, DX
	JGE  dot4_fold
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (R8)(AX*8), Y2
	VFMADD231PD Y2, Y0, Y8
	VMOVUPD (R9)(AX*8), Y3
	VFMADD231PD Y3, Y0, Y9
	VMOVUPD (R10)(AX*8), Y4
	VFMADD231PD Y4, Y0, Y10
	VMOVUPD (R11)(AX*8), Y5
	VFMADD231PD Y5, Y0, Y11
	ADDQ $4, AX
	JMP  dot4_loop4

dot4_fold:
	VADDPD Y12, Y8, Y8
	VADDPD Y13, Y9, Y9
	VADDPD Y14, Y10, Y10
	VADDPD Y15, Y11, Y11
	VEXTRACTF128 $1, Y8, X4
	VADDPD X4, X8, X8
	VHADDPD X8, X8, X8
	VEXTRACTF128 $1, Y9, X5
	VADDPD X5, X9, X9
	VHADDPD X9, X9, X9
	VEXTRACTF128 $1, Y10, X6
	VADDPD X6, X10, X10
	VHADDPD X10, X10, X10
	VEXTRACTF128 $1, Y11, X7
	VADDPD X7, X11, X11
	VHADDPD X11, X11, X11

dot4_tail:
	CMPQ AX, CX
	JGE  dot4_done
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R8)(AX*8), X2
	VFMADD231SD X2, X0, X8
	VMOVSD (R9)(AX*8), X3
	VFMADD231SD X3, X0, X9
	VMOVSD (R10)(AX*8), X4
	VFMADD231SD X4, X0, X10
	VMOVSD (R11)(AX*8), X5
	VFMADD231SD X5, X0, X11
	INCQ AX
	JMP  dot4_tail

dot4_done:
	VMOVSD X8, s0+120(FP)
	VMOVSD X9, s1+128(FP)
	VMOVSD X10, s2+136(FP)
	VMOVSD X11, s3+144(FP)
	VZEROUPPER
	RET

// func addBiasReLUAVX2(row, bias []float64)
TEXT ·addBiasReLUAVX2(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ bias_base+24(FP), SI
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

biasrelu_loop8:
	CMPQ AX, DX
	JGE  biasrelu_head4
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VADDPD Y3, Y1, Y1
	VADDPD Y4, Y2, Y2
	VMAXPD Y0, Y1, Y1
	VMAXPD Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  biasrelu_loop8

biasrelu_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

biasrelu_loop4:
	CMPQ AX, DX
	JGE  biasrelu_tail
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y3
	VADDPD Y3, Y1, Y1
	VMAXPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  biasrelu_loop4

biasrelu_tail:
	CMPQ AX, CX
	JGE  biasrelu_done
	VMOVSD (DI)(AX*8), X1
	VMOVSD (SI)(AX*8), X3
	VADDSD X3, X1, X1
	VMAXSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  biasrelu_tail

biasrelu_done:
	VZEROUPPER
	RET

// func reluMaskAVX2(dst, dy, y []float64)
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ dy_base+24(FP), SI
	MOVQ y_base+48(FP), R8
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

relumask_loop8:
	CMPQ AX, DX
	JGE  relumask_head4
	VMOVUPD (R8)(AX*8), Y1
	VMOVUPD 32(R8)(AX*8), Y2
	VCMPPD $0x1e, Y0, Y1, Y3
	VCMPPD $0x1e, Y0, Y2, Y4
	VMOVUPD (SI)(AX*8), Y5
	VMOVUPD 32(SI)(AX*8), Y6
	VANDPD Y5, Y3, Y5
	VANDPD Y6, Y4, Y6
	VMOVUPD Y5, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  relumask_loop8

relumask_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

relumask_loop4:
	CMPQ AX, DX
	JGE  relumask_tail
	VMOVUPD (R8)(AX*8), Y1
	VCMPPD $0x1e, Y0, Y1, Y3
	VMOVUPD (SI)(AX*8), Y5
	VANDPD Y5, Y3, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	JMP  relumask_loop4

relumask_tail:
	CMPQ AX, CX
	JGE  relumask_done
	VMOVSD (R8)(AX*8), X1
	VCMPSD $0x1e, X0, X1, X3
	VMOVSD (SI)(AX*8), X5
	VANDPD X3, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ AX
	JMP  relumask_tail

relumask_done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func vecMatAVX2(dst, a, b []float64)
//
// One dense MatMul output row per call: a register block of 16 dst columns
// stays live in Y8..Y11 across the entire k loop, so dst traffic is one
// load + one store per 16 columns total and the inner loop is pure
// broadcast/load/FMA. Each dst element still accumulates serially in k
// order (determinism invariant).
TEXT ·vecMatAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	MOVQ R8, R9
	SHLQ $3, R9          // b row stride in bytes
	XORQ R10, R10        // j: dst column index
	MOVQ R8, DX
	ANDQ $-16, DX

vm_chunk16:
	CMPQ R10, DX
	JGE  vm_chunk4_setup
	LEAQ (DI)(R10*8), R13
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	VMOVUPD 64(R13), Y10
	VMOVUPD 96(R13), Y11
	LEAQ (BX)(R10*8), R11
	XORQ AX, AX

vm_k16:
	CMPQ AX, CX
	JGE  vm_store16
	VBROADCASTSD (SI)(AX*8), Y0
	VMOVUPD (R11), Y4
	VMOVUPD 32(R11), Y5
	VMOVUPD 64(R11), Y6
	VMOVUPD 96(R11), Y7
	VFMADD231PD Y4, Y0, Y8
	VFMADD231PD Y5, Y0, Y9
	VFMADD231PD Y6, Y0, Y10
	VFMADD231PD Y7, Y0, Y11
	ADDQ R9, R11
	INCQ AX
	JMP  vm_k16

vm_store16:
	VMOVUPD Y8, (R13)
	VMOVUPD Y9, 32(R13)
	VMOVUPD Y10, 64(R13)
	VMOVUPD Y11, 96(R13)
	ADDQ $16, R10
	JMP  vm_chunk16

vm_chunk4_setup:
	MOVQ R8, DX
	ANDQ $-4, DX

vm_chunk4:
	CMPQ R10, DX
	JGE  vm_cols_tail
	LEAQ (DI)(R10*8), R13
	VMOVUPD (R13), Y8
	LEAQ (BX)(R10*8), R11
	XORQ AX, AX

vm_k4:
	CMPQ AX, CX
	JGE  vm_store4
	VBROADCASTSD (SI)(AX*8), Y0
	VMOVUPD (R11), Y4
	VFMADD231PD Y4, Y0, Y8
	ADDQ R9, R11
	INCQ AX
	JMP  vm_k4

vm_store4:
	VMOVUPD Y8, (R13)
	ADDQ $4, R10
	JMP  vm_chunk4

vm_cols_tail:
	CMPQ R10, R8
	JGE  vm_done
	LEAQ (DI)(R10*8), R13
	VMOVSD (R13), X8
	LEAQ (BX)(R10*8), R11
	XORQ AX, AX

vm_ktail:
	CMPQ AX, CX
	JGE  vm_store1
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R11), X4
	VFMADD231SD X4, X0, X8
	ADDQ R9, R11
	INCQ AX
	JMP  vm_ktail

vm_store1:
	VMOVSD X8, (R13)
	INCQ R10
	JMP  vm_cols_tail

vm_done:
	VZEROUPPER
	RET

// func axpy2AVX2(dst, b0, b1 []float64, a0, a1 float64)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	VBROADCASTSD a0+72(FP), Y0
	VBROADCASTSD a1+80(FP), Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

axpy2_loop16:
	CMPQ AX, DX
	JGE  axpy2_head4
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	VMOVUPD 64(DI)(AX*8), Y10
	VMOVUPD 96(DI)(AX*8), Y11
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VFMADD231PD Y4, Y0, Y8
	VFMADD231PD Y5, Y0, Y9
	VFMADD231PD Y6, Y0, Y10
	VFMADD231PD Y7, Y0, Y11
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y5
	VMOVUPD 64(R8)(AX*8), Y6
	VMOVUPD 96(R8)(AX*8), Y7
	VFMADD231PD Y4, Y1, Y8
	VFMADD231PD Y5, Y1, Y9
	VFMADD231PD Y6, Y1, Y10
	VFMADD231PD Y7, Y1, Y11
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	VMOVUPD Y10, 64(DI)(AX*8)
	VMOVUPD Y11, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  axpy2_loop16

axpy2_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

axpy2_loop4:
	CMPQ AX, DX
	JGE  axpy2_tail
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD (SI)(AX*8), Y4
	VFMADD231PD Y4, Y0, Y8
	VMOVUPD (R8)(AX*8), Y5
	VFMADD231PD Y5, Y1, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy2_loop4

axpy2_tail:
	CMPQ AX, CX
	JGE  axpy2_done
	VMOVSD (DI)(AX*8), X8
	VMOVSD (SI)(AX*8), X4
	VFMADD231SD X4, X0, X8
	VMOVSD (R8)(AX*8), X5
	VFMADD231SD X5, X1, X8
	VMOVSD X8, (DI)(AX*8)
	INCQ AX
	JMP  axpy2_tail

axpy2_done:
	VZEROUPPER
	RET

// func biasReLUDotAVX2(z, bias, w []float64) float64
TEXT ·biasReLUDotAVX2(SB), NOSPLIT, $0-80
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX
	MOVQ bias_base+24(FP), R8
	MOVQ w_base+48(FP), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y8, Y8, Y8
	VXORPD Y12, Y12, Y12
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

brdot_loop8:
	CMPQ AX, DX
	JGE  brdot_head4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VMOVUPD 32(R8)(AX*8), Y4
	VADDPD Y3, Y1, Y1
	VADDPD Y4, Y2, Y2
	VMAXPD Y0, Y1, Y1
	VMAXPD Y0, Y2, Y2
	VMOVUPD (R9)(AX*8), Y5
	VMOVUPD 32(R9)(AX*8), Y6
	VFMADD231PD Y5, Y1, Y8
	VFMADD231PD Y6, Y2, Y12
	ADDQ $8, AX
	JMP  brdot_loop8

brdot_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

brdot_loop4:
	CMPQ AX, DX
	JGE  brdot_fold
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y3
	VADDPD Y3, Y1, Y1
	VMAXPD Y0, Y1, Y1
	VMOVUPD (R9)(AX*8), Y5
	VFMADD231PD Y5, Y1, Y8
	ADDQ $4, AX
	JMP  brdot_loop4

brdot_fold:
	VADDPD Y12, Y8, Y8
	VEXTRACTF128 $1, Y8, X4
	VADDPD X4, X8, X8
	VHADDPD X8, X8, X8

brdot_tail:
	CMPQ AX, CX
	JGE  brdot_done
	VMOVSD (SI)(AX*8), X1
	VMOVSD (R8)(AX*8), X3
	VADDSD X3, X1, X1
	VMAXSD X0, X1, X1
	VMOVSD (R9)(AX*8), X5
	VFMADD231SD X5, X1, X8
	INCQ AX
	JMP  brdot_tail

brdot_done:
	VMOVSD X8, ret+72(FP)
	VZEROUPPER
	RET

// func pairHeadAVX2(z, coef, w3, w4 []float64)
//
// The CRN head's row-blocked update (PairHead): PairHeadRows = 4 rows of z
// against one pass over W3/W4. Columns go in register tiles of 4 rows × 8
// (Y8..Y15), then 4 rows × 4 (Y8, Y10, Y12, Y14), then 4 rows × 1 (X8, X10,
// X12, X14). A tile stays live across the whole k loop, so z is loaded and
// stored once per tile and every weight vector loaded serves four rows. Per
// element and per k the operations are axpy2AVX2's: an FMA with the W3 term,
// then an FMA with the W4 term. cols = len(z)/4 and h = len(coef)/8; z and
// the weight matrices share the row stride cols·8 bytes. coef is 8 rows of
// h, mn[0..3] then pr[0..3]: DX walks row mn[0] and AX row pr[0] along k,
// and the other rows are R14 = h·8 bytes apart (R15 = 3·R14).
TEXT ·pairHeadAVX2(SB), NOSPLIT, $0-96
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	SHRQ $2, CX          // cols
	MOVQ coef_base+24(FP), SI
	MOVQ coef_len+32(FP), R14
	SHRQ $3, R14         // h
	SHLQ $3, R14         // coefficient row stride in bytes
	LEAQ (R14)(R14*2), R15
	LEAQ (SI)(R14*1), BX // end of row mn[0]: the k loop's bound
	MOVQ w3_base+48(FP), R8
	MOVQ w4_base+72(FP), R9
	MOVQ CX, R10
	SHLQ $3, R10         // row stride in bytes

ph_chunk8:
	CMPQ CX, $8
	JLT  ph_chunk4
	LEAQ (DI)(R10*2), R11
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VMOVUPD (DI)(R10*1), Y10
	VMOVUPD 32(DI)(R10*1), Y11
	VMOVUPD (R11), Y12
	VMOVUPD 32(R11), Y13
	VMOVUPD (R11)(R10*1), Y14
	VMOVUPD 32(R11)(R10*1), Y15
	MOVQ R8, R12
	MOVQ R9, R13
	MOVQ SI, DX          // mn[0][k]
	LEAQ (SI)(R14*4), AX // pr[0][k]

ph_k8:
	CMPQ DX, BX
	JEQ  ph_store8
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VBROADCASTSD (DX), Y2
	VBROADCASTSD (DX)(R14*1), Y3
	VBROADCASTSD (DX)(R14*2), Y4
	VBROADCASTSD (DX)(R15*1), Y5
	VFMADD231PD Y0, Y2, Y8
	VFMADD231PD Y1, Y2, Y9
	VFMADD231PD Y0, Y3, Y10
	VFMADD231PD Y1, Y3, Y11
	VFMADD231PD Y0, Y4, Y12
	VFMADD231PD Y1, Y4, Y13
	VFMADD231PD Y0, Y5, Y14
	VFMADD231PD Y1, Y5, Y15
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VBROADCASTSD (AX), Y2
	VBROADCASTSD (AX)(R14*1), Y3
	VBROADCASTSD (AX)(R14*2), Y4
	VBROADCASTSD (AX)(R15*1), Y5
	VFMADD231PD Y0, Y2, Y8
	VFMADD231PD Y1, Y2, Y9
	VFMADD231PD Y0, Y3, Y10
	VFMADD231PD Y1, Y3, Y11
	VFMADD231PD Y0, Y4, Y12
	VFMADD231PD Y1, Y4, Y13
	VFMADD231PD Y0, Y5, Y14
	VFMADD231PD Y1, Y5, Y15
	ADDQ R10, R12
	ADDQ R10, R13
	ADDQ $8, DX
	ADDQ $8, AX
	JMP  ph_k8

ph_store8:
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, (DI)(R10*1)
	VMOVUPD Y11, 32(DI)(R10*1)
	VMOVUPD Y12, (R11)
	VMOVUPD Y13, 32(R11)
	VMOVUPD Y14, (R11)(R10*1)
	VMOVUPD Y15, 32(R11)(R10*1)
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $8, CX
	JMP  ph_chunk8

ph_chunk4:
	CMPQ CX, $4
	JLT  ph_cols1
	LEAQ (DI)(R10*2), R11
	VMOVUPD (DI), Y8
	VMOVUPD (DI)(R10*1), Y10
	VMOVUPD (R11), Y12
	VMOVUPD (R11)(R10*1), Y14
	MOVQ R8, R12
	MOVQ R9, R13
	MOVQ SI, DX          // mn[0][k]
	LEAQ (SI)(R14*4), AX // pr[0][k]

ph_k4:
	CMPQ DX, BX
	JEQ  ph_store4
	VMOVUPD (R12), Y0
	VBROADCASTSD (DX), Y2
	VBROADCASTSD (DX)(R14*1), Y3
	VBROADCASTSD (DX)(R14*2), Y4
	VBROADCASTSD (DX)(R15*1), Y5
	VFMADD231PD Y0, Y2, Y8
	VFMADD231PD Y0, Y3, Y10
	VFMADD231PD Y0, Y4, Y12
	VFMADD231PD Y0, Y5, Y14
	VMOVUPD (R13), Y1
	VBROADCASTSD (AX), Y2
	VBROADCASTSD (AX)(R14*1), Y3
	VBROADCASTSD (AX)(R14*2), Y4
	VBROADCASTSD (AX)(R15*1), Y5
	VFMADD231PD Y1, Y2, Y8
	VFMADD231PD Y1, Y3, Y10
	VFMADD231PD Y1, Y4, Y12
	VFMADD231PD Y1, Y5, Y14
	ADDQ R10, R12
	ADDQ R10, R13
	ADDQ $8, DX
	ADDQ $8, AX
	JMP  ph_k4

ph_store4:
	VMOVUPD Y8, (DI)
	VMOVUPD Y10, (DI)(R10*1)
	VMOVUPD Y12, (R11)
	VMOVUPD Y14, (R11)(R10*1)
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  ph_chunk4

ph_cols1:
	TESTQ CX, CX
	JEQ   ph_done
	LEAQ (DI)(R10*2), R11
	VMOVSD (DI), X8
	VMOVSD (DI)(R10*1), X10
	VMOVSD (R11), X12
	VMOVSD (R11)(R10*1), X14
	MOVQ R8, R12
	MOVQ R9, R13
	MOVQ SI, DX          // mn[0][k]
	LEAQ (SI)(R14*4), AX // pr[0][k]

ph_k1:
	CMPQ DX, BX
	JEQ  ph_store1
	VMOVSD (R12), X0
	VMOVSD (DX), X2
	VMOVSD (DX)(R14*1), X3
	VMOVSD (DX)(R14*2), X4
	VMOVSD (DX)(R15*1), X5
	VFMADD231SD X0, X2, X8
	VFMADD231SD X0, X3, X10
	VFMADD231SD X0, X4, X12
	VFMADD231SD X0, X5, X14
	VMOVSD (R13), X1
	VMOVSD (AX), X2
	VMOVSD (AX)(R14*1), X3
	VMOVSD (AX)(R14*2), X4
	VMOVSD (AX)(R15*1), X5
	VFMADD231SD X1, X2, X8
	VFMADD231SD X1, X3, X10
	VFMADD231SD X1, X4, X12
	VFMADD231SD X1, X5, X14
	ADDQ R10, R12
	ADDQ R10, R13
	ADDQ $8, DX
	ADDQ $8, AX
	JMP  ph_k1

ph_store1:
	VMOVSD X8, (DI)
	VMOVSD X10, (DI)(R10*1)
	VMOVSD X12, (R11)
	VMOVSD X14, (R11)(R10*1)
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JMP  ph_cols1

ph_done:
	VZEROUPPER
	RET

// func pairHeadAVX512(z, coef, w3, w4 []float64)
//
// pairHeadAVX2 at AVX-512F width, for cols a multiple of 32 (the Go
// dispatcher sends every other shape to pairHeadAVX2): one register tile of
// 4 rows × 32 columns, row r in Z(16+4r)..Z(19+4r), stays live across the
// whole k loop; every 64-byte weight vector loaded serves four rows. Per
// element and per k the operations are axpy2AVX2's — an FMA with the W3
// term, then an FMA with the W4 term — so the result equals pairHeadAVX2's
// bit for bit. cols = len(z)/4 and h = len(coef)/8; z and the weight
// matrices share the row stride cols·8 bytes, and the coefficient rows are
// addressed as in pairHeadAVX2.
TEXT ·pairHeadAVX512(SB), NOSPLIT, $0-96
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	SHRQ $2, CX          // cols
	MOVQ coef_base+24(FP), SI
	MOVQ coef_len+32(FP), R14
	SHRQ $3, R14         // h
	SHLQ $3, R14         // coefficient row stride in bytes
	LEAQ (R14)(R14*2), R15
	LEAQ (SI)(R14*1), BX // end of row mn[0]: the k loop's bound
	MOVQ w3_base+48(FP), R8
	MOVQ w4_base+72(FP), R9
	MOVQ CX, R10
	SHLQ $3, R10         // row stride in bytes

p5_chunk:
	TESTQ CX, CX
	JEQ   p5_done
	LEAQ  (DI)(R10*2), R11
	VMOVUPD (DI), Z16
	VMOVUPD 64(DI), Z17
	VMOVUPD 128(DI), Z18
	VMOVUPD 192(DI), Z19
	VMOVUPD (DI)(R10*1), Z20
	VMOVUPD 64(DI)(R10*1), Z21
	VMOVUPD 128(DI)(R10*1), Z22
	VMOVUPD 192(DI)(R10*1), Z23
	VMOVUPD (R11), Z24
	VMOVUPD 64(R11), Z25
	VMOVUPD 128(R11), Z26
	VMOVUPD 192(R11), Z27
	VMOVUPD (R11)(R10*1), Z28
	VMOVUPD 64(R11)(R10*1), Z29
	VMOVUPD 128(R11)(R10*1), Z30
	VMOVUPD 192(R11)(R10*1), Z31
	MOVQ R8, R12
	MOVQ R9, R13
	MOVQ SI, DX          // mn[0][k]
	LEAQ (SI)(R14*4), AX // pr[0][k]

p5_k:
	CMPQ DX, BX
	JEQ  p5_store
	VMOVUPD (R12), Z0
	VMOVUPD 64(R12), Z1
	VMOVUPD 128(R12), Z2
	VMOVUPD 192(R12), Z3
	VBROADCASTSD (DX), Z4
	VBROADCASTSD (DX)(R14*1), Z5
	VBROADCASTSD (DX)(R14*2), Z6
	VBROADCASTSD (DX)(R15*1), Z7
	VFMADD231PD Z0, Z4, Z16
	VFMADD231PD Z1, Z4, Z17
	VFMADD231PD Z2, Z4, Z18
	VFMADD231PD Z3, Z4, Z19
	VFMADD231PD Z0, Z5, Z20
	VFMADD231PD Z1, Z5, Z21
	VFMADD231PD Z2, Z5, Z22
	VFMADD231PD Z3, Z5, Z23
	VFMADD231PD Z0, Z6, Z24
	VFMADD231PD Z1, Z6, Z25
	VFMADD231PD Z2, Z6, Z26
	VFMADD231PD Z3, Z6, Z27
	VFMADD231PD Z0, Z7, Z28
	VFMADD231PD Z1, Z7, Z29
	VFMADD231PD Z2, Z7, Z30
	VFMADD231PD Z3, Z7, Z31
	VMOVUPD (R13), Z0
	VMOVUPD 64(R13), Z1
	VMOVUPD 128(R13), Z2
	VMOVUPD 192(R13), Z3
	VBROADCASTSD (AX), Z4
	VBROADCASTSD (AX)(R14*1), Z5
	VBROADCASTSD (AX)(R14*2), Z6
	VBROADCASTSD (AX)(R15*1), Z7
	VFMADD231PD Z0, Z4, Z16
	VFMADD231PD Z1, Z4, Z17
	VFMADD231PD Z2, Z4, Z18
	VFMADD231PD Z3, Z4, Z19
	VFMADD231PD Z0, Z5, Z20
	VFMADD231PD Z1, Z5, Z21
	VFMADD231PD Z2, Z5, Z22
	VFMADD231PD Z3, Z5, Z23
	VFMADD231PD Z0, Z6, Z24
	VFMADD231PD Z1, Z6, Z25
	VFMADD231PD Z2, Z6, Z26
	VFMADD231PD Z3, Z6, Z27
	VFMADD231PD Z0, Z7, Z28
	VFMADD231PD Z1, Z7, Z29
	VFMADD231PD Z2, Z7, Z30
	VFMADD231PD Z3, Z7, Z31
	ADDQ R10, R12
	ADDQ R10, R13
	ADDQ $8, DX
	ADDQ $8, AX
	JMP  p5_k

p5_store:
	VMOVUPD Z16, (DI)
	VMOVUPD Z17, 64(DI)
	VMOVUPD Z18, 128(DI)
	VMOVUPD Z19, 192(DI)
	VMOVUPD Z20, (DI)(R10*1)
	VMOVUPD Z21, 64(DI)(R10*1)
	VMOVUPD Z22, 128(DI)(R10*1)
	VMOVUPD Z23, 192(DI)(R10*1)
	VMOVUPD Z24, (R11)
	VMOVUPD Z25, 64(R11)
	VMOVUPD Z26, 128(R11)
	VMOVUPD Z27, 192(R11)
	VMOVUPD Z28, (R11)(R10*1)
	VMOVUPD Z29, 64(R11)(R10*1)
	VMOVUPD Z30, 128(R11)(R10*1)
	VMOVUPD Z31, 192(R11)(R10*1)
	ADDQ $256, DI
	ADDQ $256, R8
	ADDQ $256, R9
	SUBQ $32, CX
	JMP  p5_chunk

p5_done:
	VZEROUPPER
	RET

// func addVecAVX2(dst, a, b []float64)
//
// dst[j] = a[j] + b[j]: one VADDPD per four elements, the scalar tail one
// VADDSD each — the generic loop's single rounding, so bit-identical.
TEXT ·addVecAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

add_loop16:
	CMPQ AX, DX
	JGE  add_head4
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VADDPD (R8)(AX*8), Y0, Y0
	VADDPD 32(R8)(AX*8), Y1, Y1
	VADDPD 64(R8)(AX*8), Y2, Y2
	VADDPD 96(R8)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  add_loop16

add_head4:
	MOVQ CX, DX
	ANDQ $-4, DX

add_loop4:
	CMPQ AX, DX
	JGE  add_tail
	VMOVUPD (SI)(AX*8), Y0
	VADDPD (R8)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  add_loop4

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

// func pairCoefAVX2(mn, pr, a, b []float64)
//
// mn[k] = −2·min(a[k], b[k]) and pr[k] = a[k]·b[k]. VMINPD returns its
// second source on equal operands, so min(+0, −0) would depend on the
// operand order where Go's min gives −0: the kernel ORs the two orders,
// which keeps every other result and turns a mixed pair of zeros into −0.
// The scaling by −2 is exact and the product one VMULPD, so the result is
// the generic loop's bit for bit on every non-NaN input.
TEXT ·pairCoefAVX2(SB), NOSPLIT, $0-96
	MOVQ mn_base+0(FP), DI
	MOVQ mn_len+8(FP), CX
	MOVQ pr_base+24(FP), R8
	MOVQ a_base+48(FP), SI
	MOVQ b_base+72(FP), R9
	MOVQ $0xc000000000000000, AX // -2.0
	MOVQ AX, X7
	VBROADCASTSD X7, Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

coef_loop4:
	CMPQ AX, DX
	JGE  coef_tail
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (R9)(AX*8), Y1
	VMINPD Y1, Y0, Y2
	VMINPD Y0, Y1, Y3
	VORPD  Y3, Y2, Y2
	VMULPD Y7, Y2, Y2
	VMULPD Y1, Y0, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, (R8)(AX*8)
	ADDQ $4, AX
	JMP  coef_loop4

coef_tail:
	CMPQ AX, CX
	JGE  coef_done
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R9)(AX*8), X1
	VMINSD X1, X0, X2
	VMINSD X0, X1, X3
	VORPD  X3, X2, X2
	VMULSD X7, X2, X2
	VMULSD X1, X0, X3
	VMOVSD X2, (DI)(AX*8)
	VMOVSD X3, (R8)(AX*8)
	INCQ AX
	JMP  coef_tail

coef_done:
	VZEROUPPER
	RET
