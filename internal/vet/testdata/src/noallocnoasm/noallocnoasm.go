// Package noallocnoasm is the noalloc analyzer's golden package for an
// annotated body-less declaration in a package without assembly: nothing
// implements it, so the audit cannot accept it as a leaf.
package noallocnoasm

// sumAsm is annotated, but this package has no .s file.
//
//dmml:noalloc
func sumAsm(xs []float64) float64

//dmml:noalloc
func callsAsmLeaf(xs []float64) float64 {
	return sumAsm(xs) // want `call to body-less sumAsm, whose package has no assembly file in //dmml:noalloc flow of callsAsmLeaf`
}
