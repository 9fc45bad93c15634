#include "textflag.h"

// The assembly behind noalloc.go's body-less declarations. The analyzer only
// checks that this file exists; it is never assembled.

// func sumAsm(xs []float64) float64
TEXT ·sumAsm(SB), NOSPLIT, $0-32
	RET

// func scaleAsm(xs []float64, a float64)
TEXT ·scaleAsm(SB), NOSPLIT, $0-32
	RET
