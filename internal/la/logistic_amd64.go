package la

// logisticTile4 runs groups of four rows of LogisticLossInto from the front
// of the slices on the vector unit (logistic_amd64.s): while every |z| of a
// group lies in [2⁻²⁸, 20), it writes the group's derivs and adds its four
// values to total one at a time in index order. It returns the rows it took
// — a multiple of four, stopping at the first group outside the gate — and
// the new total. margins and y have one length; derivs is at least as long.
//
//go:noescape
//dmml:noalloc
func logisticTile4(derivs, margins, y []float64, total float64) (done int, sum float64)

// sigmoidTile4 runs groups of four values of sigmoidTile from the front of
// x on the vector unit (logistic_amd64.s): while every |m| of a group lies
// in the sigmoid gate [2⁻²⁸, 700), it writes sigLane(m, exp8FMA's e) into
// dst. It returns the values it took — a multiple of four, stopping at the
// first group outside the gate. dst is at least as long as x.
//
//go:noescape
//dmml:noalloc
func sigmoidTile4(dst, x []float64) (done int)

// cpuid runs CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the state components the OS saves.
func xgetbv() (eax, edx uint32)

// vectorTilesSupported reports whether this CPU and OS run the vector tiles
// (logisticTile4, sigmoidTile4 and the dense tiles): CPUID reports FMA, AVX and AVX2, and
// XGETBV reports that the OS saves the XMM and YMM state.
func vectorTilesSupported() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
