package experiments

import (
	"os"

	"dmml/internal/compress"
	"dmml/internal/la"
)

// tmpDir creates a private scratch directory for one experiment's
// buffer-pool spills and checkpoints; the experiment removes it when done.
func tmpDir() (string, error) {
	return os.MkdirTemp("", "dmml-bench-*")
}

// Thin aliases keep experiments2.go free of extra imports.
func laNewDense(rows, cols int) *la.Dense { return la.NewDense(rows, cols) }

func compressCompress(m *la.Dense, coCode bool) *compress.Matrix {
	return compress.Compress(m, compress.Options{CoCode: coCode})
}
