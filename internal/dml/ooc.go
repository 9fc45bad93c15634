package dml

import (
	"fmt"
	"os"

	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/storage"
)

// readMatrix loads a CSV file for the read() builtin. With no pool every file
// parses into a dense in-memory matrix. With one, a file whose on-disk size
// exceeds the pool's budget streams into a block-paged out-of-core matrix
// instead: row blocks sized from the budget are CLA-compressed where that
// pays, live in the pool, spill and re-pin under its eviction policy, and
// are prefetched one ahead, so resident memory stays bounded by the budget
// no matter how large the input is. File size is the paging trigger (not
// parsed dense size) so the decision costs one stat and no I/O; a text float
// averages close to 8 bytes, making the two sizes the same order of
// magnitude.
func readMatrix(pool *storage.BufferPool, path string) (Value, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return Value{}, err
	}
	if fi.IsDir() {
		return Value{}, fmt.Errorf("%s is a directory", path)
	}
	if pool != nil && fi.Size() > pool.Budget() {
		m, err := ooc.ReadCSVFile(pool, path, ooc.Options{Prefetch: true})
		if err != nil {
			return Value{}, err
		}
		return OOC(m), nil
	}
	m, err := storage.ReadMatrixCSVFile(path)
	if err != nil {
		return Value{}, err
	}
	return Matrix(m), nil
}

// The rest of this file is every place the evaluator chooses between the two
// matrix representations. Each streaming-capable physical operator has one
// branch point below — the dense la kernel, or a pass over the out-of-core
// block stream whose failure (a spill read) comes back as an error naming the
// operator — and dense is the single accessor every other operator reaches
// its operand through.

// oocUnsupported reports an operation that would need the whole matrix
// resident. Out-of-core matrices support exactly the streaming access paths:
// size queries, column aggregates, and the mat-vec/Gram product patterns.
func oocUnsupported(op string) error {
	return fmt.Errorf("%s is not supported on an out-of-core matrix; "+
		"supported: nrow, ncol, sum, mean, colSums, X %%*%% v, t(X) %%*%% v, t(X) %%*%% X", op)
}

// dense returns v's in-memory matrix for an operator with no streaming form
// (nil for a scalar). It is the one site that refuses an out-of-core operand,
// and so the one site where a planner would insert a conversion instead.
func (e *evaluator) dense(v Value, op string) (*la.Dense, error) {
	if v.O != nil {
		return nil, oocUnsupported(op)
	}
	return v.M, nil
}

// streamErr names the DML operator whose pass over an out-of-core matrix
// failed.
func streamErr(op string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", op, err)
}

// dims is nrow/ncol: metadata only, no block is touched.
func (v Value) dims() (rows, cols int) {
	if v.O != nil {
		return v.O.Rows(), v.O.Cols()
	}
	return v.M.Dims()
}

// colSums is the per-column sum behind colSums, and behind sum and mean of an
// out-of-core matrix; op is the builtin it runs for.
func (v Value) colSums(op string) ([]float64, error) {
	if v.O == nil {
		return v.M.ColSums(), nil
	}
	sums, err := v.O.ColSums()
	return sums, streamErr(op, err)
}

// sum is the all-cells sum behind sum and mean.
func (v Value) sum(op string) (float64, error) {
	if v.O == nil {
		return v.M.Sum(), nil
	}
	sums, err := v.colSums(op)
	return la.SumVec(sums), err
}

// matVec is X %*% v for a column v.
func (v Value) matVec(x []float64) ([]float64, error) {
	if v.O == nil {
		return la.MatVec(v.M, x), nil
	}
	dst := make([]float64, v.O.Rows())
	return dst, streamErr("X %*% v", v.O.MatVec(dst, x))
}

// vecMat is t(X) %*% y for a column y, without materializing the transpose.
func (v Value) vecMat(y []float64) ([]float64, error) {
	if v.O == nil {
		return la.VecMat(y, v.M), nil
	}
	dst := make([]float64, v.O.Cols())
	return dst, streamErr("t(X) %*% v", v.O.VecMat(dst, y))
}

// gram is t(X) %*% X, without materializing the transpose.
func (v Value) gram() (*la.Dense, error) {
	if v.O == nil {
		return la.Gram(v.M), nil
	}
	g, err := v.O.Gram()
	return g, streamErr("t(X) %*% X", err)
}
