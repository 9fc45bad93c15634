#include "textflag.h"

// The dense tiles on AVX2: matVecRows' four-row sweep, vecMatAccum's row
// pairs and gramAccum's four-row fold (kernels.go), every lane doing the Go
// loop's own arithmetic in the Go loop's order. Each multiply is one
// VMULPD/VMULSD and each add one VADDPD/VADDSD: nothing is fused, as the
// amd64 compiler fuses only explicit math.FMA. The zero tests are ordered
// compares, so ±0 is zero and NaN is not, as in Go.

// HSUM adds lanes 0, 1, 2 and 3 of acc (xacc its low half) to the scalar s,
// one at a time in that order; t is scratch.
#define HSUM(acc, xacc, t, s) VADDSD xacc, s, s; VUNPCKHPD xacc, xacc, t; VADDSD t, s, s; VEXTRACTF128 $1, acc, t; VADDSD t, s, s; VUNPCKHPD t, t, t; VADDSD t, s, s

// func matVecTile4(dst, rows, x []float64) (done int)
//
// For each of the len(dst)&^3 rows of len(x) columns laid out in rows, sets
// dst[k] to Dot(row k, x): four strided partial sums, one YMM lane each, the
// column tail summed from zero, and the result tail + s0 + s1 + s2 + s3.
// Four rows share each load of x.
TEXT ·matVecTile4(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	ANDQ $-4, CX
	MOVQ CX, done+72(FP)
	MOVQ BX, R8
	ANDQ $-4, R8          // columns in whole vectors
	LEAQ (SI)(BX*8), R9   // row 1 of the group
	LEAQ (R9)(BX*8), R10  // row 2
	LEAQ (R10)(BX*8), R11 // row 3
	MOVQ BX, R12
	SHLQ $5, R12          // a group of four rows, in bytes
	XORQ R13, R13

mvGroup:
	CMPQ R13, CX
	JAE  mvEnd
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

mvBody:
	CMPQ    AX, R8
	JAE     mvTail
	VMOVUPD (DX)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9)(AX*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R10)(AX*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R11)(AX*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	JMP     mvBody

mvTail:
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7

mvTailLoop:
	CMPQ   AX, BX
	JAE    mvSum
	VMOVSD (DX)(AX*8), X8
	VMULSD (SI)(AX*8), X8, X9
	VADDSD X9, X4, X4
	VMULSD (R9)(AX*8), X8, X9
	VADDSD X9, X5, X5
	VMULSD (R10)(AX*8), X8, X9
	VADDSD X9, X6, X6
	VMULSD (R11)(AX*8), X8, X9
	VADDSD X9, X7, X7
	INCQ   AX
	JMP    mvTailLoop

mvSum:
	HSUM(Y0, X0, X8, X4)
	HSUM(Y1, X1, X8, X5)
	HSUM(Y2, X2, X8, X6)
	HSUM(Y3, X3, X8, X7)
	VMOVSD X4, (DI)
	VMOVSD X5, 8(DI)
	VMOVSD X6, 16(DI)
	VMOVSD X7, 24(DI)
	ADDQ   $32, DI
	ADDQ   R12, SI
	ADDQ   R12, R9
	ADDQ   R12, R10
	ADDQ   R12, R11
	ADDQ   $4, R13
	JMP    mvGroup

mvEnd:
	VZEROUPPER
	RET

// func vecMatTile2(acc, rows, x []float64) (done int)
//
// Folds pairs of rows of len(acc) columns, laid out in rows and weighed by
// x, into acc from the front while both weights of a pair are nonzero:
// acc[b] += x0*row0[b] + x1*row1[b], four columns at a time, the column tail
// one at a time. Returns the rows it took, a multiple of two, stopping at
// the first pair with a zero weight or with fewer than two rows left.
TEXT ·vecMatTile2(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), BX
	MOVQ rows_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	ANDQ $-2, CX
	MOVQ BX, R8
	ANDQ $-4, R8         // columns in whole vectors
	LEAQ (SI)(BX*8), R9  // row 1 of the pair
	MOVQ BX, R12
	SHLQ $4, R12         // a pair of rows, in bytes
	XORQ R13, R13
	VXORPD X15, X15, X15

vmPair:
	CMPQ         R13, CX
	JAE          vmEnd
	VMOVUPD      (DX)(R13*8), X0
	VCMPPD       $0, X15, X0, X0 // x0 == 0, x1 == 0
	VMOVMSKPD    X0, AX
	TESTQ        AX, AX
	JNE          vmEnd
	VBROADCASTSD (DX)(R13*8), Y0
	VBROADCASTSD 8(DX)(R13*8), Y1
	XORQ         AX, AX

vmBody:
	CMPQ    AX, R8
	JAE     vmTail
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  (R9)(AX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VADDPD  (DI)(AX*8), Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     vmBody

vmTail:
	CMPQ   AX, BX
	JAE    vmNext
	VMULSD (SI)(AX*8), X0, X2
	VMULSD (R9)(AX*8), X1, X3
	VADDSD X3, X2, X2
	VADDSD (DI)(AX*8), X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    vmTail

vmNext:
	ADDQ $2, R13
	ADDQ R12, SI
	ADDQ R12, R9
	JMP  vmPair

vmEnd:
	VZEROUPPER
	MOVQ R13, done+72(FP)
	RET

// func gramTile4(acc, quad []float64, a int) (next int)
//
// quad holds four rows of d = len(quad)/4 columns; acc is the row-major d×d
// accumulator. From accumulator row a on, while the four rows' coefficients
// va0…va3 at the row are all nonzero, folds them into its upper triangle:
// arow[b] += va0*row0[b] + va1*row1[b] + va2*row2[b] + va3*row3[b] for b
// from a to d, four columns at a time, the tail one at a time. Returns the
// first accumulator row it did not take, d when it took them all.
TEXT ·gramTile4(SB), NOSPLIT, $0-64
	MOVQ  acc_base+0(FP), DI
	MOVQ  quad_base+24(FP), SI
	MOVQ  quad_len+32(FP), BX
	MOVQ  a+48(FP), CX
	SHRQ  $2, BX         // d
	LEAQ  (SI)(BX*8), R9 // row 1
	LEAQ  (R9)(BX*8), R10
	LEAQ  (R10)(BX*8), R11
	MOVQ  CX, AX
	IMULQ BX, AX
	LEAQ  (DI)(AX*8), DI // arow = acc[a*d:]
	VXORPD Y15, Y15, Y15

gmRow:
	CMPQ         CX, BX
	JAE          gmEnd
	VBROADCASTSD (SI)(CX*8), Y0
	VBROADCASTSD (R9)(CX*8), Y1
	VBROADCASTSD (R10)(CX*8), Y2
	VBROADCASTSD (R11)(CX*8), Y3
	VBLENDPD     $2, Y1, Y0, Y4
	VBLENDPD     $4, Y2, Y4, Y4
	VBLENDPD     $8, Y3, Y4, Y4
	VCMPPD       $0, Y15, Y4, Y4 // va0…va3 == 0
	VMOVMSKPD    Y4, AX
	TESTQ        AX, AX
	JNE          gmEnd
	MOVQ         CX, AX          // b = a
	MOVQ         BX, R8
	SUBQ         CX, R8
	ANDQ         $-4, R8
	ADDQ         CX, R8          // where whole vectors end

gmBody:
	CMPQ    AX, R8
	JAE     gmTail
	VMULPD  (SI)(AX*8), Y0, Y5
	VMULPD  (R9)(AX*8), Y1, Y6
	VADDPD  Y6, Y5, Y5
	VMULPD  (R10)(AX*8), Y2, Y6
	VADDPD  Y6, Y5, Y5
	VMULPD  (R11)(AX*8), Y3, Y6
	VADDPD  Y6, Y5, Y5
	VADDPD  (DI)(AX*8), Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     gmBody

gmTail:
	CMPQ   AX, BX
	JAE    gmNext
	VMULSD (SI)(AX*8), X0, X5
	VMULSD (R9)(AX*8), X1, X6
	VADDSD X6, X5, X5
	VMULSD (R10)(AX*8), X2, X6
	VADDSD X6, X5, X5
	VMULSD (R11)(AX*8), X3, X6
	VADDSD X6, X5, X5
	VADDSD (DI)(AX*8), X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    gmTail

gmNext:
	INCQ CX
	LEAQ (DI)(BX*8), DI
	JMP  gmRow

gmEnd:
	VZEROUPPER
	MOVQ CX, next+56(FP)
	RET
