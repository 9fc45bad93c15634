package experiments

import (
	"math"
	"os"

	"dmml/internal/la"
)

// tmpDir creates a private scratch directory for one experiment's
// buffer-pool spills and checkpoints; the experiment removes it when done.
func tmpDir() (string, error) {
	return os.MkdirTemp("", "dmml-bench-*")
}

// sameBits reports whether a and b have the same shape and every cell the
// same bit pattern: an exact check, under which −0 differs from +0 and a
// NaN equals a NaN of the same payload.
func sameBits(a, b *la.Dense) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	bd := b.RawData()
	for i, v := range a.RawData() {
		if math.Float64bits(v) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}
