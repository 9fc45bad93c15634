// Package ooc implements the out-of-core training datapath: a row-block
// partitioned matrix whose blocks live in a storage.BufferPool as pages —
// CLA-compressed (via internal/compress's page codec) when the encoding pays,
// raw row-major otherwise — with an async double-buffered prefetcher that
// pins block N+1 while the optimizer computes on block N.
//
// The paper's out-of-core and CLA sections motivate the design: training on
// data larger than RAM at near in-memory speed requires (a) bounded resident
// memory with spill, (b) compression so each disk/pool byte carries more
// rows, and (c) operating directly on the compressed form so pinning a block
// does not cost a decompression. ooc.Matrix has one face, the fallible block
// stream of opt.BlockData: every bulk solver in internal/opt accepts it, and
// its whole-matrix products (MatVec, VecMat, Gram, ColSums) are passes over
// that stream that return a failed block read as an error.
package ooc

import (
	"errors"
	"fmt"

	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// Options tunes block construction.
type Options struct {
	// BlockRows is the number of rows per block. The last block may be
	// short. Zero sizes blocks from the pool's budget: a dense block is
	// 1/poolBlocks of it, and at least one row.
	BlockRows int
	// NoCompress disables CLA compression: every block is stored as a raw
	// row-major page. Mostly for experiments comparing the two layouts.
	NoCompress bool
	// Prefetch enables the async double-buffered block prefetcher for
	// ForEachBlock streams. Default off.
	Prefetch bool
}

// poolBlocks is how many default-sized dense blocks fill the pool's budget:
// enough that the two the prefetcher pins never exhaust it, few enough that
// each block amortizes its pin.
const poolBlocks = 8

// minRatio is the compression ratio (dense bytes / page bytes) a block must
// achieve for the compressed form to be kept; below it the raw layout wins
// because decoding cost buys no byte savings.
const minRatio = 1.2

// withBlockRows resolves a zero BlockRows for a cols-wide matrix in bp.
func (o Options) withBlockRows(bp *storage.BufferPool, cols int) Options {
	if o.BlockRows <= 0 {
		o.BlockRows = max(int(bp.Budget()/int64(8*cols))/poolBlocks, 1)
	}
	return o
}

// blockMeta describes one row block without holding its data.
type blockMeta struct {
	startRow   int
	rows       int
	words      int // page length in float64 words
	compressed bool
}

// Matrix is a block-partitioned matrix whose row blocks are buffer-pool
// pages. It is immutable after Build/FromDense. Reads pin pages on demand, so
// resident memory is bounded by the pool's budget regardless of matrix size.
type Matrix struct {
	bp       *storage.BufferPool
	owner    int
	rows     int
	cols     int
	blocks   []blockMeta
	prefetch bool
}

// Rows implements opt.BlockData.
func (m *Matrix) Rows() int { return m.rows }

// Cols implements opt.BlockData.
func (m *Matrix) Cols() int { return m.cols }

// NumBlocks implements opt.BlockData.
func (m *Matrix) NumBlocks() int { return len(m.blocks) }

// CompressedBlocks returns how many blocks kept the CLA-compressed layout.
func (m *Matrix) CompressedBlocks() int {
	n := 0
	for _, b := range m.blocks {
		if b.compressed {
			n++
		}
	}
	return n
}

// PagedBytes returns the total page bytes across all blocks — the footprint
// the matrix would have if fully resident, and the amount of disk it occupies
// when fully spilled.
func (m *Matrix) PagedBytes() int64 {
	var n int64
	for _, b := range m.blocks {
		n += 8 * int64(b.words)
	}
	return n
}

// DenseBytes returns the footprint of the equivalent fully-dense matrix.
func (m *Matrix) DenseBytes() int64 { return 8 * int64(m.rows) * int64(m.cols) }

// Drop releases every page (resident and spilled) backing the matrix.
func (m *Matrix) Drop() error { return m.bp.DropOwner(m.owner) }

// Builder assembles a Matrix block-by-block so sources (CSV readers, result
// writers) never materialize more than one block of dense data at a time.
type Builder struct {
	bp      *storage.BufferPool
	owner   int
	cols    int
	opts    Options
	m       *Matrix
	largest int // words in the largest block's page
	done    bool
}

// NewBuilder starts building a cols-wide matrix in bp.
func NewBuilder(bp *storage.BufferPool, cols int, opts Options) *Builder {
	opts = opts.withBlockRows(bp, cols)
	owner := bp.RegisterOwner()
	return &Builder{
		bp:    bp,
		owner: owner,
		cols:  cols,
		opts:  opts,
		m:     &Matrix{bp: bp, owner: owner, cols: cols},
	}
}

// AppendBlock adds d's rows as the next block. The block is compressed, with
// CLA's pairwise column co-coding, when compression pays (and Options allow
// it), written into a pool page, and unpinned, so the pool may evict or spill
// it immediately. An error ends the build: the builder's pages leave the
// pool, and a later call is an error.
func (b *Builder) AppendBlock(d *la.Dense) error {
	if b.done {
		return fmt.Errorf("ooc: AppendBlock after Finish")
	}
	if err := b.appendBlock(d); err != nil {
		return b.abort(err)
	}
	return nil
}

// abort ends a failed build: it drops every page the builder wrote and
// returns err, joined with a failure to drop.
func (b *Builder) abort(err error) error {
	b.done = true
	return errors.Join(err, b.bp.DropOwner(b.owner))
}

func (b *Builder) appendBlock(d *la.Dense) error {
	if d.Cols() != b.cols {
		return fmt.Errorf("ooc: AppendBlock with %d cols, want %d", d.Cols(), b.cols)
	}
	meta := blockMeta{startRow: b.m.rows, rows: d.Rows()}
	var cm *compress.Matrix
	if !b.opts.NoCompress {
		c := compress.Compress(d, compress.Options{CoCode: true})
		words := compress.EncodedLen(c)
		if float64(d.Rows()*d.Cols())/float64(words) >= minRatio {
			cm = c
			meta.compressed = true
			meta.words = words
		}
	}
	if cm == nil {
		meta.words = d.Rows() * d.Cols()
	}
	id := storage.PageID{Owner: b.owner, Index: len(b.m.blocks)}
	page, err := b.bp.Pin(id, meta.words)
	if err != nil {
		return fmt.Errorf("ooc: AppendBlock: %w", err)
	}
	if cm != nil {
		if err := compress.EncodeInto(page, cm); err != nil {
			b.bp.Unpin(id, false)
			return fmt.Errorf("ooc: AppendBlock: %w", err)
		}
	} else {
		copy(page, d.RawData())
	}
	b.bp.Unpin(id, true)
	b.m.blocks = append(b.m.blocks, meta)
	b.m.rows += meta.rows
	b.largest = max(b.largest, meta.words)
	mBlocksBuilt.Inc()
	return nil
}

// Finish flushes all dirty pages to disk (so the matrix survives pool
// eviction of any block) and returns the completed Matrix. On an error the
// builder's pages leave the pool.
func (b *Builder) Finish() (*Matrix, error) {
	if b.done {
		return nil, fmt.Errorf("ooc: Finish called twice")
	}
	if b.m.rows == 0 {
		return nil, b.abort(fmt.Errorf("ooc: Finish with no rows appended"))
	}
	b.done = true
	if err := b.bp.FlushAll(); err != nil {
		return nil, b.abort(fmt.Errorf("ooc: Finish: %w", err))
	}
	// The prefetcher pins two blocks at once; over a pool too small for two
	// of the largest, the stream pins one block at a time instead.
	b.m.prefetch = b.opts.Prefetch && 16*int64(b.largest) <= b.bp.Budget()
	return b.m, nil
}

// FromDense partitions m into blocks and pages them into bp. The source is
// read one block at a time, so peak extra memory is one block's dense copy.
// On an error nothing stays in the pool.
func FromDense(bp *storage.BufferPool, m *la.Dense, opts Options) (*Matrix, error) {
	b := NewBuilder(bp, m.Cols(), opts)
	rows, cols := m.Dims()
	for r0 := 0; r0 < rows; r0 += b.opts.BlockRows {
		nb := min(b.opts.BlockRows, rows-r0)
		blk, err := la.NewDenseData(nb, cols, m.RawData()[r0*cols:(r0+nb)*cols])
		if err != nil {
			return nil, b.abort(err)
		}
		if err := b.AppendBlock(blk); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

var _ opt.BlockData = (*Matrix)(nil)
