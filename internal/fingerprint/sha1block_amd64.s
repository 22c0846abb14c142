#include "textflag.h"

// SHA-1 on the SHA extensions (SHA-NI), after Intel's published schedule:
// 20 groups g of four rounds, PADDD (g = 0) or SHA1NEXTE into E0/E1 in
// turn, then SHA1RNDS4 $g/5, with SHA1MSG2 for 3 <= g <= 18, SHA1MSG1 for
// 1 <= g <= 16 and PXOR for 2 <= g <= 17. Needs SHA, SSSE3 and SSE4.1.
// X0 ABCD, X1/X2 E0/E1, X3-X6 MSG0-MSG3, X7 flip mask, X8/X9 saved E/ABCD.

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ   h+0(FP), DI
	MOVQ   p_base+8(FP), SI
	MOVQ   p_len+16(FP), DX
	ANDQ   $-64, DX
	JZ     done
	ADDQ   SI, DX
	MOVOU  (DI), X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	PSHUFD $0x1b, X0, X0
	MOVOU  flipmask<>(SB), X7

loop:
	MOVO      X1, X8
	MOVO      X0, X9
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0 // first group of rounds 0-19
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0 // first group of rounds 20-39
	SHA1MSG1  X4, X3
	PXOR      X4, X6
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0 // first group of rounds 40-59
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $3, X2, X0 // first group of rounds 60-79
	SHA1MSG1  X6, X5
	PXOR      X6, X4
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	SHA1NEXTE X8, X1
	PADDD     X9, X0
	ADDQ      $64, SI
	CMPQ      SI, DX
	JNE       loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
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

// Byte-reverses a load: big-endian message words, word 0 in the top lane.
DATA flipmask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipmask<>+8(SB)/8, $0x0001020304050607
GLOBL flipmask<>(SB), RODATA|NOPTR, $16
