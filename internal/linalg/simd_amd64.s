//go:build amd64 && !noasm

#include "textflag.h"

// func fusedTick64(m *float64, cols int, x *float64, bias *float64, y *float64)
//
// y[0:64] = bias[0:64] + Σ_j x[j] · m[j·64 : j·64+64]
//
// The eight ZMM accumulators Z0–Z7 hold the 64-entry output for the
// whole loop; each column costs one VBROADCASTSD plus eight
// memory-operand VFMADD231PD, i.e. the matrix streams through the FMA
// units once with no horizontal reductions. Columns are 64-byte
// aligned (Pack aligns the backing array), so every load is a whole
// cache line.
TEXT ·fusedTick64(SB), NOSPLIT, $0-40
	MOVQ m+0(FP), SI
	MOVQ cols+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ bias+24(FP), BX
	MOVQ y+32(FP), DI

	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7

	TESTQ CX, CX
	JZ    done

	// Main loop: two columns per iteration so the broadcast loads of
	// one column overlap the FMAs of the other.
	MOVQ CX, AX
	SHRQ $1, AX
	JZ   tail

pair:
	VBROADCASTSD (DX), Z8
	VBROADCASTSD 8(DX), Z9
	VFMADD231PD  (SI), Z8, Z0
	VFMADD231PD  64(SI), Z8, Z1
	VFMADD231PD  128(SI), Z8, Z2
	VFMADD231PD  192(SI), Z8, Z3
	VFMADD231PD  256(SI), Z8, Z4
	VFMADD231PD  320(SI), Z8, Z5
	VFMADD231PD  384(SI), Z8, Z6
	VFMADD231PD  448(SI), Z8, Z7
	VFMADD231PD  512(SI), Z9, Z0
	VFMADD231PD  576(SI), Z9, Z1
	VFMADD231PD  640(SI), Z9, Z2
	VFMADD231PD  704(SI), Z9, Z3
	VFMADD231PD  768(SI), Z9, Z4
	VFMADD231PD  832(SI), Z9, Z5
	VFMADD231PD  896(SI), Z9, Z6
	VFMADD231PD  960(SI), Z9, Z7
	ADDQ $1024, SI
	ADDQ $16, DX
	DECQ AX
	JNZ  pair

tail:
	ANDQ $1, CX
	JZ   done
	VBROADCASTSD (DX), Z8
	VFMADD231PD  (SI), Z8, Z0
	VFMADD231PD  64(SI), Z8, Z1
	VFMADD231PD  128(SI), Z8, Z2
	VFMADD231PD  192(SI), Z8, Z3
	VFMADD231PD  256(SI), Z8, Z4
	VFMADD231PD  320(SI), Z8, Z5
	VFMADD231PD  384(SI), Z8, Z6
	VFMADD231PD  448(SI), Z8, Z7

done:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VZEROUPPER
	RET

// func fusedTickBatch56x4(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int)
//
// For each lane l in [0,k), with at most 56 live rows:
//
//	y[l·64 : l·64+56] = bias[l·64 : l·64+56] + Σ_j x[l·xStride+j] · m[j·64 : j·64+56]
//
// The quad-lane GEMM form of fusedTick64: k is a positive multiple of
// four (the Go wrapper routes remainder lanes to fusedTick64) and each
// group of four lanes streams the propagator once. The top chunk of
// every 64-entry column is zero padding, so only seven chunks run and
// rows 56–63 of bias and y are never touched. 4 lanes × 7 live chunks
// would need 28 accumulators, so the rows are register-blocked into two
// passes over the columns:
//
//	pass 1, chunks 0–3 (rows 0–31): Z0–Z15 accumulate (4 chunks × 4
//	  lanes), Z16–Z19 hold the column's chunks, Z20–Z23 the broadcasts;
//	pass 2, chunks 4–6 (rows 32–55): Z0–Z11 accumulate, the column
//	  cursor starts 256 bytes in.
//
// Each pass re-walks x (64 columns × 4 broadcasts — trivially hot) but
// touches a disjoint 2 KB row block of the propagator per column, which
// stays L1-resident while all four lanes consume it. Per lane and per
// row the FMA order over columns is unchanged, so lanes remain
// bit-identical to fusedTick64. Lane C and D input cursors are derived
// by indexed addressing off lanes A and B ((R11)(R9*2), (R12)(R9*2)),
// keeping R13–R15 untouched.
TEXT ·fusedTickBatch56x4(SB), NOSPLIT, $0-56
	MOVQ m+0(FP), SI
	MOVQ cols+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ xStride+24(FP), R9
	MOVQ bias+32(FP), BX
	MOVQ y+40(FP), DI
	MOVQ k+48(FP), R8

	SHLQ $3, R9              // x lane stride, bytes

quadloop:
	CMPQ R8, $4
	JLT  quaddone

	// -------- pass 1: chunks 0–3 (rows 0–31) --------
	// Accumulators: lane A Z0–Z3, B Z4–Z7, C Z8–Z11, D Z12–Z15, seeded
	// from each lane's bias column (lane L chunk c at L·512 + c·64).
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 512(BX), Z4
	VMOVUPD 576(BX), Z5
	VMOVUPD 640(BX), Z6
	VMOVUPD 704(BX), Z7
	VMOVUPD 1024(BX), Z8
	VMOVUPD 1088(BX), Z9
	VMOVUPD 1152(BX), Z10
	VMOVUPD 1216(BX), Z11
	VMOVUPD 1536(BX), Z12
	VMOVUPD 1600(BX), Z13
	VMOVUPD 1664(BX), Z14
	VMOVUPD 1728(BX), Z15

	MOVQ SI, R10             // column cursor, chunk 0 of column 0
	MOVQ DX, R11             // lane A input cursor
	LEAQ (DX)(R9*1), R12     // lane B input cursor
	MOVQ CX, AX

pass1col:
	VMOVUPD      (R10), Z16
	VMOVUPD      64(R10), Z17
	VMOVUPD      128(R10), Z18
	VMOVUPD      192(R10), Z19
	VBROADCASTSD (R11), Z20
	VBROADCASTSD (R12), Z21
	VBROADCASTSD (R11)(R9*2), Z22
	VBROADCASTSD (R12)(R9*2), Z23
	VFMADD231PD  Z16, Z20, Z0
	VFMADD231PD  Z17, Z20, Z1
	VFMADD231PD  Z18, Z20, Z2
	VFMADD231PD  Z19, Z20, Z3
	VFMADD231PD  Z16, Z21, Z4
	VFMADD231PD  Z17, Z21, Z5
	VFMADD231PD  Z18, Z21, Z6
	VFMADD231PD  Z19, Z21, Z7
	VFMADD231PD  Z16, Z22, Z8
	VFMADD231PD  Z17, Z22, Z9
	VFMADD231PD  Z18, Z22, Z10
	VFMADD231PD  Z19, Z22, Z11
	VFMADD231PD  Z16, Z23, Z12
	VFMADD231PD  Z17, Z23, Z13
	VFMADD231PD  Z18, Z23, Z14
	VFMADD231PD  Z19, Z23, Z15
	ADDQ         $512, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         AX
	JNZ          pass1col

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 512(DI)
	VMOVUPD Z5, 576(DI)
	VMOVUPD Z6, 640(DI)
	VMOVUPD Z7, 704(DI)
	VMOVUPD Z8, 1024(DI)
	VMOVUPD Z9, 1088(DI)
	VMOVUPD Z10, 1152(DI)
	VMOVUPD Z11, 1216(DI)
	VMOVUPD Z12, 1536(DI)
	VMOVUPD Z13, 1600(DI)
	VMOVUPD Z14, 1664(DI)
	VMOVUPD Z15, 1728(DI)

	// -------- pass 2: chunks 4–6 (rows 32–55) --------
	// Accumulators: lane A Z0–Z2, B Z3–Z5, C Z6–Z8, D Z9–Z11.
	VMOVUPD 256(BX), Z0
	VMOVUPD 320(BX), Z1
	VMOVUPD 384(BX), Z2
	VMOVUPD 768(BX), Z3
	VMOVUPD 832(BX), Z4
	VMOVUPD 896(BX), Z5
	VMOVUPD 1280(BX), Z6
	VMOVUPD 1344(BX), Z7
	VMOVUPD 1408(BX), Z8
	VMOVUPD 1792(BX), Z9
	VMOVUPD 1856(BX), Z10
	VMOVUPD 1920(BX), Z11

	LEAQ 256(SI), R10        // column cursor, chunk 4 of column 0
	MOVQ DX, R11
	LEAQ (DX)(R9*1), R12
	MOVQ CX, AX

pass2col:
	VMOVUPD      (R10), Z16
	VMOVUPD      64(R10), Z17
	VMOVUPD      128(R10), Z18
	VBROADCASTSD (R11), Z20
	VBROADCASTSD (R12), Z21
	VBROADCASTSD (R11)(R9*2), Z22
	VBROADCASTSD (R12)(R9*2), Z23
	VFMADD231PD  Z16, Z20, Z0
	VFMADD231PD  Z17, Z20, Z1
	VFMADD231PD  Z18, Z20, Z2
	VFMADD231PD  Z16, Z21, Z3
	VFMADD231PD  Z17, Z21, Z4
	VFMADD231PD  Z18, Z21, Z5
	VFMADD231PD  Z16, Z22, Z6
	VFMADD231PD  Z17, Z22, Z7
	VFMADD231PD  Z18, Z22, Z8
	VFMADD231PD  Z16, Z23, Z9
	VFMADD231PD  Z17, Z23, Z10
	VFMADD231PD  Z18, Z23, Z11
	ADDQ         $512, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         AX
	JNZ          pass2col

	VMOVUPD Z0, 256(DI)
	VMOVUPD Z1, 320(DI)
	VMOVUPD Z2, 384(DI)
	VMOVUPD Z3, 768(DI)
	VMOVUPD Z4, 832(DI)
	VMOVUPD Z5, 896(DI)
	VMOVUPD Z6, 1280(DI)
	VMOVUPD Z7, 1344(DI)
	VMOVUPD Z8, 1408(DI)
	VMOVUPD Z9, 1792(DI)
	VMOVUPD Z10, 1856(DI)
	VMOVUPD Z11, 1920(DI)

	ADDQ $2048, BX
	ADDQ $2048, DI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, R8
	JMP  quadloop

quaddone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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

// Constants of expKernel, one per ZMM register Z16–Z31. The float
// values are those of the runtime's math/exp_amd64.s, written with the
// same decimal literals so the assembler rounds them to the same
// float64s; the last three are the domain bound, the sign-clearing mask
// and the exponent bias.
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920                   // log2(e)
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375             // ln 2, upper half
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln 2, lower half
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5 // 1/8!
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4 // 1/7!
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3 // 1/6!
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3 // 1/5!
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2 // 1/4!
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1 // 1/3!
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/8, $708.0 // expDomain
DATA expconst<>+112(SB)/8, $0x7fffffffffffffff
DATA expconst<>+120(SB)/8, $1023
GLOBL expconst<>(SB), RODATA|NOPTR, $128

// func expKernel(dst, x *float64, n int) (stop int, oob uint8)
//
// dst[i] = math.Exp(x[i]) for i in [0,n), eight lanes per chunk. Each
// lane runs the straight-line FMA branch of the runtime's amd64
// archExp, op for op and in the same order:
//
//	k = round(x·log2e)                      VCVTPD2DQ, MXCSR rounding (CVTSD2SL)
//	r = x − k·ln2U, then r −= k·ln2L        two fused negated multiply-adds
//	r ×= 1/16
//	p = ((((((1/8!·r + 1/7!)·r + …)·r + 1/2)·r + 1   seven fused steps
//	y = r·p; y = (y+2)·y three times; y = (y+2)·y + 1 fused
//	y ×= 2^k                                 (k+1023)<<52 as a float64
//
// so every lane is bit-identical to the scalar call. The straight line
// holds only for |x| ≤ 708 (expDomain): there k stays in [−1021, 1021]
// and archExp takes none of its NaN, Inf, overflow or denormal
// branches. A VCMPPD (ordered ≤, so NaN fails) masks the store to the
// lanes inside it. The first chunk with an active lane outside the
// domain ends the call: its in-domain lanes are stored, the others are
// left untouched, and the chunk's start index and out-of-domain lane
// mask are returned. Otherwise the result is (n, 0). The last partial
// chunk runs under a masked (zeroing) load and store, so no lane past n
// is read or written.
//
// Registers: Z0 x, then r, then the result; Z1 |x|, then x·log2e, then
// k as a float64, then the 2^k scale; Y2 k as int32; Z3 the polynomial
// and the (y+2) factors; K1 active lanes, K2 active in-domain lanes, K3
// their difference.
TEXT ·expKernel(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), R8

	LEAQ         expconst<>(SB), R9
	VBROADCASTSD 0(R9), Z16
	VBROADCASTSD 8(R9), Z17
	VBROADCASTSD 16(R9), Z18
	VBROADCASTSD 24(R9), Z19
	VBROADCASTSD 32(R9), Z20
	VBROADCASTSD 40(R9), Z21
	VBROADCASTSD 48(R9), Z22
	VBROADCASTSD 56(R9), Z23
	VBROADCASTSD 64(R9), Z24
	VBROADCASTSD 72(R9), Z25
	VBROADCASTSD 80(R9), Z26
	VBROADCASTSD 88(R9), Z27
	VBROADCASTSD 96(R9), Z28
	VBROADCASTSD 104(R9), Z29
	VBROADCASTSD 112(R9), Z30
	VBROADCASTSD 120(R9), Z31

	XORQ  AX, AX            // chunk start index
	MOVL  $0xff, DX
	KMOVW DX, K1            // all eight lanes active

chunk:
	MOVQ R8, CX
	SUBQ AX, CX             // lanes left
	JLE  done
	CMPQ CX, $8
	JGE  full

	// Last partial chunk: K1 = (1<<left) − 1.
	MOVL      $1, DX
	SHLL      CX, DX
	DECL      DX
	KMOVW     DX, K1
	VMOVUPD.Z (SI)(AX*8), K1, Z0
	JMP       body

full:
	VMOVUPD (SI)(AX*8), Z0

body:
	VPANDQ       Z30, Z0, Z1
	VCMPPD       $0x12, Z29, Z1, K1, K2 // K2 = K1 ∧ (|x| ≤ expDomain), LE_OQ
	VMULPD       Z16, Z0, Z1
	VCVTPD2DQ    Z1, Y2
	VCVTDQ2PD    Y2, Z1
	VFNMADD231PD Z17, Z1, Z0
	VFNMADD231PD Z18, Z1, Z0
	VMULPD       Z19, Z0, Z0
	VMOVAPD      Z20, Z3
	VFMADD213PD  Z21, Z0, Z3
	VFMADD213PD  Z22, Z0, Z3
	VFMADD213PD  Z23, Z0, Z3
	VFMADD213PD  Z24, Z0, Z3
	VFMADD213PD  Z25, Z0, Z3
	VFMADD213PD  Z26, Z0, Z3
	VFMADD213PD  Z27, Z0, Z3
	VMULPD       Z3, Z0, Z0
	VADDPD       Z28, Z0, Z3
	VMULPD       Z3, Z0, Z0
	VADDPD       Z28, Z0, Z3
	VMULPD       Z3, Z0, Z0
	VADDPD       Z28, Z0, Z3
	VMULPD       Z3, Z0, Z0
	VADDPD       Z28, Z0, Z3
	VFMADD213PD  Z27, Z3, Z0
	VPMOVSXDQ    Y2, Z1
	VPADDQ       Z31, Z1, Z1
	VPSLLQ       $52, Z1, Z1
	VMULPD       Z1, Z0, Z0
	VMOVUPD      Z0, K2, (DI)(AX*8)

	KXORW    K2, K1, K3
	KORTESTW K3, K3
	JNZ      spill
	ADDQ     $8, AX
	JMP      chunk

done:
	MOVQ R8, stop+24(FP)
	MOVB $0, oob+32(FP)
	VZEROUPPER
	RET

spill:
	MOVQ  AX, stop+24(FP)
	KMOVW K3, DX
	MOVB  DX, oob+32(FP)
	VZEROUPPER
	RET
