package dml

import (
	"fmt"
	"os"
	"sync"

	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// ReadConfig controls how the read() builtin materializes CSV inputs. With no
// configuration (or a nil Pool) every file parses into a dense in-memory
// matrix. When a buffer pool and byte budget are set, files whose on-disk
// size exceeds the budget stream into a block-paged out-of-core matrix
// instead: row blocks are CLA-compressed and live in the pool, spilling and
// re-pinning under its eviction policy, so resident memory stays bounded by
// the pool budget no matter how large the input is.
type ReadConfig struct {
	// Pool backs out-of-core matrices. nil disables paging entirely.
	Pool *storage.BufferPool
	// Budget is the dense-size threshold in bytes: inputs whose file size
	// exceeds it go out-of-core. <=0 disables paging.
	Budget int64
	// BlockRows is the rows-per-block granularity (0 = ooc default).
	BlockRows int
	// Prefetch enables the async block prefetcher on matrices read here.
	Prefetch bool
}

var (
	readMu  sync.Mutex
	readCfg ReadConfig
)

// SetReadConfig installs the process-wide policy for the read() builtin.
// Callers own the pool's lifetime: matrices read out-of-core keep their
// pages in the pool until the pool itself is discarded.
func SetReadConfig(cfg ReadConfig) {
	readMu.Lock()
	readCfg = cfg
	readMu.Unlock()
}

func currentReadConfig() ReadConfig {
	readMu.Lock()
	defer readMu.Unlock()
	return readCfg
}

// readMatrix loads a CSV file for the read() builtin, choosing dense or
// block-paged representation by comparing the file size against the
// configured budget. File size is the paging trigger (not parsed dense size)
// so the decision costs one stat and no I/O; a text float averages close to
// 8 bytes, making the two sizes the same order of magnitude.
func readMatrix(path string) (Value, error) {
	cfg := currentReadConfig()
	fi, err := os.Stat(path)
	if err != nil {
		return Value{}, err
	}
	if fi.IsDir() {
		return Value{}, fmt.Errorf("%s is a directory", path)
	}
	if cfg.Pool != nil && cfg.Budget > 0 && fi.Size() > cfg.Budget {
		m, err := ooc.ReadCSVFile(cfg.Pool, path, ooc.Options{
			BlockRows: cfg.BlockRows,
			Prefetch:  cfg.Prefetch,
		})
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
		return v.O.Dims()
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
	err := v.O.ForEachBlock(func(b opt.RowBlock) error {
		b.MatVecInto(dst[b.StartRow():b.StartRow()+b.Rows()], x)
		return nil
	})
	return dst, streamErr("X %*% v", err)
}

// vecMat is t(X) %*% y for a column y, without materializing the transpose.
func (v Value) vecMat(y []float64) ([]float64, error) {
	if v.O == nil {
		return la.VecMat(y, v.M), nil
	}
	dst := make([]float64, v.O.Cols())
	err := v.O.ForEachBlock(func(b opt.RowBlock) error {
		b.VecMatAccum(dst, y[b.StartRow():b.StartRow()+b.Rows()])
		return nil
	})
	return dst, streamErr("t(X) %*% v", err)
}

// gram is t(X) %*% X, without materializing the transpose.
func (v Value) gram() (*la.Dense, error) {
	if v.O == nil {
		return la.Gram(v.M), nil
	}
	g, err := v.O.Gram()
	return g, streamErr("t(X) %*% X", err)
}
