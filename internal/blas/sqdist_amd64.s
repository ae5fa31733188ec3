//go:build amd64 && !purego

#include "textflag.h"

// tailMask<> + 8*(4-r) is a VMASKMOVPD mask that loads r elements.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7 // highest basic leaf
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: XMM and YMM state saved by the OS
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// STEP8 adds the squared differences of 8 elements at SI/DI into the
// lane accumulators Y0 (lanes 0-3) and Y1 (lanes 4-7) and advances.
// Multiply and add stay separate instructions: VFMADD would round once
// where the canonical reduction rounds twice.
#define STEP8 \
	VMOVUPD (SI), Y2      \
	VMOVUPD 32(SI), Y3    \
	VSUBPD  (DI), Y2, Y2  \
	VSUBPD  32(DI), Y3, Y3 \
	VMULPD  Y2, Y2, Y2    \
	VMULPD  Y3, Y3, Y3    \
	VADDPD  Y2, Y0, Y0    \
	VADDPD  Y3, Y1, Y1    \
	ADDQ    $64, SI       \
	ADDQ    $64, DI

// REDUCE leaves ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)) in the low lane of
// X4 without touching the accumulators.
#define REDUCE \
	VHADDPD      Y1, Y0, Y4 \ // l0+l1, l4+l5, l2+l3, l6+l7
	VEXTRACTF128 $1, Y4, X5 \
	VADDPD       X5, X4, X4 \ // (l0+l1)+(l2+l3), (l4+l5)+(l6+l7)
	VHADDPD      X4, X4, X4

// MASKED adds the squared differences of the CX (1 to 3) elements at
// SI/DI into the low lanes of ACC; AX points at tailMask<>+32. Masked-off
// lanes load zero from both sides and add +0, which leaves a
// non-negative or NaN accumulator as it was; they never fault, so a tail
// that ends a mapping is safe.
#define MASKED(ACC) \
	SHLQ       $3, CX       \
	SUBQ       CX, AX       \
	VMOVDQU    (AX), Y5     \
	VMASKMOVPD (SI), Y5, Y2 \
	VMASKMOVPD (DI), Y5, Y3 \
	VSUBPD     Y3, Y2, Y2   \
	VMULPD     Y2, Y2, Y2   \
	VADDPD     Y2, ACC, ACC

// func sqDistAVX2(x, y []float64, bound float64) float64
TEXT ·sqDistAVX2(SB), NOSPLIT, $0-64
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VMOVSD bound+48(FP), X6
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

chunk:
	CMPQ CX, $128 // sqDistCheck
	JLT  rest
	MOVQ $16, DX

chunk8:
	STEP8
	DECQ DX
	JNZ  chunk8
	SUBQ $128, CX
	REDUCE
	VUCOMISD X6, X4
	JHI  done // partial sum > bound; a NaN on either side is not above
	JMP  chunk

rest:
	CMPQ CX, $8
	JLT  tail
	STEP8
	SUBQ $8, CX
	JMP  rest

tail:
	// CX in [0,7]: element t goes to lane t.
	LEAQ tailMask<>+32(SB), AX
	CMPQ CX, $4
	JLT  tail0
	VMOVUPD (SI), Y2
	VSUBPD  (DI), Y2, Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JZ      sum

	MASKED(Y1)
	JMP  sum

tail0:
	TESTQ CX, CX
	JZ    sum
	MASKED(Y0)

sum:
	REDUCE

done:
	VMOVSD X4, ret+56(FP)
	VZEROUPPER
	RET
