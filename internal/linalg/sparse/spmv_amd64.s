//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// func mulGroupsAVX512(grp *rowGroup, ngrp int, col *[8]int32, val *[8]float64, x, y *float64, longCol *int32, longVal *float64, nlong int) float64
//
// Each group's eight rows are the eight lanes of Z0. Per slot p the
// kernel loads the slot's eight column indices, gathers those entries
// of x, multiplies them by the slot's eight stored values and adds the
// products into Z0; at the group's end one scatter writes the eight
// sums to y[rows]. Every lane starts at +0 and adds its row's products
// in slot order, which is ascending column order, with a separate
// multiply and add, as the scalar loop does: no FMA, which would round
// once instead of twice. The stored value is the multiply's first
// source and the accumulator the add's, as in the compiled scalar loop,
// so even the payload of a NaN that meets another NaN is the same.
//
// The long row is a second, scalar dependency chain in X4: each slot
// of the group loop also adds one of its entries, and the entries left
// when the groups end run alone. Its sum is returned.
//
// A gather and a scatter clear their mask as they complete, so each
// takes a fresh all-ones mask from KXNORW of K7, which nothing writes.
// KXNORW K1, K1, K1 would read the mask the previous gather cleared and
// so wait for that gather.
//
// Registers: SI the group, CX groups left, R8 col, R9 val, DX x, DI y;
// R13 and BX the group's slot range as byte offsets into col (val is
// twice as wide, so (R9)(R13*2) is the same slot); R10, R11 and R12 the
// long row's next column index, next value and entries left; Z0 the
// group's sums, Y1 the indices, Z2 the gathered x, Z3 the products; X4
// the long row's sum, X5 its product.
TEXT ·mulGroupsAVX512(SB), NOSPLIT, $0-80
	MOVQ grp+0(FP), SI
	MOVQ ngrp+8(FP), CX
	MOVQ col+16(FP), R8
	MOVQ val+24(FP), R9
	MOVQ x+32(FP), DX
	MOVQ y+40(FP), DI
	MOVQ longCol+48(FP), R10
	MOVQ longVal+56(FP), R11
	MOVQ nlong+64(FP), R12

	VXORPD X4, X4, X4
	TESTQ  CX, CX
	JZ     longtail

group:
	MOVLQSX const_rowGroupLo(SI), R13
	MOVLQSX const_rowGroupHi(SI), BX
	SHLQ    $5, R13
	SHLQ    $5, BX
	VPXORQ  Z0, Z0, Z0
	CMPQ    R13, BX
	JGE     store

slot:
	KXNORW     K7, K7, K1
	VMOVDQU    (R8)(R13*1), Y1
	VGATHERDPD (DX)(Y1*8), K1, Z2
	VMOVUPD    (R9)(R13*2), Z3
	VMULPD     Z2, Z3, Z3
	VADDPD     Z3, Z0, Z0
	TESTQ      R12, R12
	JZ         next
	MOVLQSX    (R10), AX
	VMOVSD     (R11), X5
	VMULSD     (DX)(AX*8), X5, X5
	VADDSD     X5, X4, X4
	ADDQ       $4, R10
	ADDQ       $8, R11
	DECQ       R12

next:
	ADDQ $32, R13
	CMPQ R13, BX
	JLT  slot

store:
	KXNORW      K7, K7, K2
	VMOVDQU     (SI), Y1
	VSCATTERDPD Z0, K2, (DI)(Y1*8)
	ADDQ        $const_rowGroupSize, SI
	DECQ        CX
	JNZ         group

longtail:
	TESTQ R12, R12
	JZ    done

long:
	MOVLQSX (R10), AX
	VMOVSD  (R11), X5
	VMULSD  (DX)(AX*8), X5, X5
	VADDSD  X5, X4, X4
	ADDQ    $4, R10
	ADDQ    $8, R11
	DECQ    R12
	JNZ     long

done:
	VMOVSD X4, ret+72(FP)
	VZEROUPPER
	RET
