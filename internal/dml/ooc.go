package dml

import (
	"fmt"
	"os"
	"sync"

	"dmml/internal/ooc"
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
