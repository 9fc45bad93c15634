#include "textflag.h"

// The logistic tile on AVX2+FMA: four rows per group, every lane the scalar
// pair's arithmetic (logistic.go) in the scalar pair's order. exp is
// exp8FMA's sequence — each math.FMA there is one VFMADD/VFNMADD here, each
// plain multiply or add one VMULPD/VADDPD — and log1p is math.log1p's
// general path, its two branches turned into selects. Nothing is fused that
// the Go source leaves unfused: the amd64 compiler fuses only explicit
// math.FMA.

// C4 declares a 32-byte constant: bits in each of the four lanes.
#define C4(name, bits) DATA name<>+0(SB)/8, bits; DATA name<>+8(SB)/8, bits; DATA name<>+16(SB)/8, bits; DATA name<>+24(SB)/8, bits; GLOBL name<>(SB), RODATA|NOPTR, $32

C4(absMask, $0x7fffffffffffffff)
C4(signBit, $0x8000000000000000)
C4(gateLo, $0x3e30000000000000) // 2^-28
C4(gateHi, $0x4034000000000000) // 20
C4(one, $0x3ff0000000000000)
C4(two, $0x4000000000000000)
C4(half, $0x3fe0000000000000)
C4(sixteenth, $0x3fb0000000000000)

// exp8FMA's constants.
C4(log2e, $0x3ff71547652b82fe)
C4(expRound, $0x4338000000000000)
C4(ln2U, $0x3fe62e42fefa3000)
C4(ln2L, $0x3d53de6af278ece6)
C4(expC1, $0x3efa01a01a01a01a)
C4(expC2, $0x3f2a01a01a01a01a)
C4(expC3, $0x3f56c16c16c16c17)
C4(expC4, $0x3f81111111111111)
C4(expC5, $0x3fa5555555555555)
C4(expC6, $0x3fc5555555555555)
C4(bias, $0x3ff)

// math.log1p's constants. sqrt2M1 is the float64 its Sqrt2M1 literal rounds
// to, not the …34 its comment gives.
C4(sqrt2M1, $0x3fda827999fcef32)
C4(mantMask, $0x000fffffffffffff)
C4(sqrt2MantM1, $0x0006a09e667f3bcc) // one below √2's mantissa
C4(expo0, $0x3ff0000000000000)
C4(expoM1, $0x3fe0000000000000)
C4(ln2Hi, $0x3fe62e42fee00000)
C4(ln2Lo, $0x3dea39ef35793c76)
C4(lp1, $0x3fe5555555555593)
C4(lp2, $0x3fd999999997fa04)
C4(lp3, $0x3fd2492494229359)
C4(lp4, $0x3fcc71c51d8e78af)
C4(lp5, $0x3fc7466496cb03de)
C4(lp6, $0x3fc39a09d078c69f)
C4(lp7, $0x3fc2f112df3e5244)

// func logisticTile4(derivs, margins, y []float64, total float64) (done int, sum float64)
//
// Runs groups of four rows from the front while every |z| of a group lies in
// [2^-28, 20), writing derivs and adding the four values to total one lane at
// a time in index order. Stops at the first group outside the gate or with
// fewer than four rows left; done is the rows it took.
TEXT ·logisticTile4(SB), NOSPLIT, $0-96
	MOVQ  derivs_base+0(FP), DI
	MOVQ  margins_base+24(FP), SI
	MOVQ  margins_len+32(FP), CX
	MOVQ  y_base+48(FP), DX
	MOVSD total+72(FP), X0
	ANDQ  $-4, CX
	XORQ  AX, AX

loop:
	CMPQ AX, CX
	JAE  end

	// z = y·m; the gate on a = |z|.
	VMOVUPD   (SI)(AX*8), Y1
	VMOVUPD   (DX)(AX*8), Y2
	VMULPD    Y1, Y2, Y1
	VANDPD    absMask<>(SB), Y1, Y3
	VCMPPD    $0x1d, gateLo<>(SB), Y3, Y4 // a >= 2^-28
	VCMPPD    $0x11, gateHi<>(SB), Y3, Y5 // a < 20
	VANDPD    Y4, Y5, Y4
	VMOVMSKPD Y4, BX
	CMPQ      BX, $15
	JNE       end

	// e = exp(x), x = −a = z with its sign bit set (exp8FMA).
	VORPD        signBit<>(SB), Y1, Y3
	VMULPD       log2e<>(SB), Y3, Y4         // kd = log2e·x
	VADDPD       expRound<>(SB), Y4, Y4      // kd += 1.5·2^52
	VPADDQ       bias<>(SB), Y4, Y5          // (k+0x3ff)<<52: the 0x4338… bias shifts out
	VPSLLQ       $52, Y5, Y5
	VSUBPD       expRound<>(SB), Y4, Y4      // kd −= 1.5·2^52
	VFNMADD231PD ln2U<>(SB), Y4, Y3          // u = FMA(−kd, ln2U, x)
	VFNMADD231PD ln2L<>(SB), Y4, Y3          // u = FMA(−kd, ln2L, u)
	VMULPD       sixteenth<>(SB), Y3, Y3     // u *= 0.0625
	VMOVUPD      expC1<>(SB), Y6
	VFMADD213PD  expC2<>(SB), Y3, Y6         // h = FMA(c1, u, c2)
	VFMADD213PD  expC3<>(SB), Y3, Y6         // h = FMA(h, u, c3)
	VFMADD213PD  expC4<>(SB), Y3, Y6
	VFMADD213PD  expC5<>(SB), Y3, Y6
	VFMADD213PD  expC6<>(SB), Y3, Y6
	VFMADD213PD  half<>(SB), Y3, Y6
	VFMADD213PD  one<>(SB), Y3, Y6
	VMULPD       Y6, Y3, Y3                  // s = u·h
	VADDPD       two<>(SB), Y3, Y7           // s = s·(s+2), three times
	VMULPD       Y7, Y3, Y3
	VADDPD       two<>(SB), Y3, Y7
	VMULPD       Y7, Y3, Y3
	VADDPD       two<>(SB), Y3, Y7
	VMULPD       Y7, Y3, Y3
	VADDPD       two<>(SB), Y3, Y7           // s = FMA(s, s+2, 1)
	VFMADD213PD  one<>(SB), Y7, Y3
	VMULPD       Y5, Y3, Y3                  // e = s·2^k

	// log1p(e) for e in [2^-29, 1): lanes with e < √2−1 take f = e, k = 0;
	// the rest normalize u = 1+e against √2's mantissa, k = 0 or 1.
	VCMPPD    $0x11, sqrt2M1<>(SB), Y3, Y7 // small: e < √2−1
	VADDPD    one<>(SB), Y3, Y4            // u = 1+e (also deriv's denominator)
	VANDPD    mantMask<>(SB), Y4, Y5       // iu = mantissa of u
	VSUBPD    one<>(SB), Y4, Y6            // c = (e − (u−1)) / u
	VSUBPD    Y6, Y3, Y6
	VDIVPD    Y4, Y6, Y6
	VPCMPGTQ  sqrt2MantM1<>(SB), Y5, Y8    // big: iu ≥ √2's mantissa
	VMOVUPD   expo0<>(SB), Y9
	VBLENDVPD Y8, expoM1<>(SB), Y9, Y9     // u (big: u/2) = iu | exponent
	VORPD     Y5, Y9, Y9
	VSUBPD    one<>(SB), Y9, Y9            // f = u − 1
	VBLENDVPD Y7, Y3, Y9, Y9               // small: f = e
	VANDNPD   Y8, Y7, Y8                   // k1 = big and not small
	VMULPD    half<>(SB), Y9, Y10          // hfsq = 0.5·f·f
	VMULPD    Y9, Y10, Y10
	VADDPD    two<>(SB), Y9, Y11           // s = f/(2+f)
	VDIVPD    Y11, Y9, Y11
	VMULPD    Y11, Y11, Y12                // z = s·s
	VMULPD    lp7<>(SB), Y12, Y13          // R = z·(Lp1+z·(Lp2+…+z·Lp7))
	VADDPD    lp6<>(SB), Y13, Y13
	VMULPD    Y12, Y13, Y13
	VADDPD    lp5<>(SB), Y13, Y13
	VMULPD    Y12, Y13, Y13
	VADDPD    lp4<>(SB), Y13, Y13
	VMULPD    Y12, Y13, Y13
	VADDPD    lp3<>(SB), Y13, Y13
	VMULPD    Y12, Y13, Y13
	VADDPD    lp2<>(SB), Y13, Y13
	VMULPD    Y12, Y13, Y13
	VADDPD    lp1<>(SB), Y13, Y13
	VMULPD    Y12, Y13, Y13
	VADDPD    Y13, Y10, Y13                // s·(hfsq+R)
	VMULPD    Y13, Y11, Y13
	VSUBPD    Y13, Y10, Y14                // k = 0: f − (hfsq − s·(hfsq+R))
	VSUBPD    Y14, Y9, Y14
	VADDPD    ln2Lo<>(SB), Y6, Y6          // k = 1: Ln2Hi − ((hfsq − (s·(hfsq+R) + (Ln2Lo+c))) − f)
	VADDPD    Y6, Y13, Y6
	VSUBPD    Y6, Y10, Y6
	VSUBPD    Y9, Y6, Y6
	VMOVUPD   ln2Hi<>(SB), Y15
	VSUBPD    Y6, Y15, Y15
	VBLENDVPD Y8, Y15, Y14, Y14            // log1p(e)

	// value = log1p(e) + (z<0 ? −z : +0); deriv = (−y·num)/(1+e) with
	// num = z<0 ? 1 : e. Both selects read z's sign bit.
	VXORPD    Y15, Y15, Y15
	VXORPD    signBit<>(SB), Y1, Y13
	VBLENDVPD Y1, Y13, Y15, Y15
	VADDPD    Y15, Y14, Y14
	VBLENDVPD Y1, one<>(SB), Y3, Y3
	VXORPD    signBit<>(SB), Y2, Y2
	VMULPD    Y3, Y2, Y2
	VDIVPD    Y4, Y2, Y2
	VMOVUPD   Y2, (DI)(AX*8)

	// total += value[0], value[1], value[2], value[3], in that order.
	VADDSD      X14, X0, X0
	VUNPCKHPD   X14, X14, X13
	VADDSD      X13, X0, X0
	VEXTRACTF128 $1, Y14, X14
	VADDSD      X14, X0, X0
	VUNPCKHPD   X14, X14, X13
	VADDSD      X13, X0, X0

	ADDQ $4, AX
	JMP  loop

end:
	VZEROUPPER
	MOVQ  AX, done+80(FP)
	MOVSD X0, sum+88(FP)
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
