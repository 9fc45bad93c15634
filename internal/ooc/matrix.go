// Package ooc implements the out-of-core training datapath: a row-block
// partitioned matrix whose blocks live in a storage.BufferPool as CLA pages
// of internal/compress's page codec — compressed when the encoding pays,
// one uncompressed (UC) column group per column otherwise — with an async
// double-buffered prefetcher that pins block N+1 while the optimizer
// computes on block N. Every block decodes to a compress.Matrix, so every
// block runs the compressed kernels and the one-pass block step. The
// builder that writes the pages runs one block behind its source: it
// compresses and pages out block k on a goroutine of its own while the
// caller produces block k+1, with at most one block in flight.
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
	// NoCompress disables CLA compression: every block is stored
	// uncompressed, one UC column group per column. Mostly for experiments
	// comparing the two layouts.
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
// achieve for the compressed form to be kept; below it the uncompressed
// layout wins because the dictionary lookups buy no byte savings.
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
// writers) never materialize more than two blocks of dense data at a time.
// It runs one block behind its caller: AppendBlock hands block k to a
// goroutine of its own, which compresses, encodes and pages it out while the
// caller produces block k+1. At most one block is in flight; each
// AppendBlock and Finish first waits for it, and its error, if any, comes
// back from that call.
type Builder struct {
	bp      *storage.BufferPool
	owner   int
	cols    int
	opts    Options
	m       *Matrix
	largest int // words in the largest block's page
	done    bool

	inFlight bool         // a block is being paged out
	result   chan written // the block in flight's outcome
}

// written is the outcome of paging out one block.
type written struct {
	meta blockMeta
	err  error
}

// NewBuilder starts building a cols-wide matrix in bp.
func NewBuilder(bp *storage.BufferPool, cols int, opts Options) *Builder {
	opts = opts.withBlockRows(bp, cols)
	owner := bp.RegisterOwner()
	return &Builder{
		bp:     bp,
		owner:  owner,
		cols:   cols,
		opts:   opts,
		m:      &Matrix{bp: bp, owner: owner, cols: cols},
		result: make(chan written, 1),
	}
}

// AppendBlock adds d's rows as the next block. The block is compressed, with
// CLA's pairwise column co-coding, when compression pays (and Options allow
// it), and kept as UC column groups otherwise; either way it is written into
// a pool page by the CLA codec and unpinned, so the pool may evict or spill
// it immediately. That work runs on the builder's own goroutine after
// AppendBlock returns: the builder may read d until the next AppendBlock or
// Finish returns, so the caller must not change d before then. A failure to
// page d out is returned by that next call. An error ends the build: the
// builder's pages leave the pool, and a later call is an error.
func (b *Builder) AppendBlock(d *la.Dense) error {
	if b.done {
		return fmt.Errorf("ooc: AppendBlock after Finish")
	}
	if err := b.wait(); err != nil {
		return b.abort(err)
	}
	if d.Cols() != b.cols {
		return b.abort(fmt.Errorf("ooc: AppendBlock with %d cols, want %d", d.Cols(), b.cols))
	}
	meta := blockMeta{startRow: b.m.rows, rows: d.Rows()}
	id := storage.PageID{Owner: b.owner, Index: len(b.m.blocks)}
	b.m.rows += meta.rows
	b.inFlight = true
	go func() {
		err := b.writeBlock(d, id, &meta)
		b.result <- written{meta, err}
	}()
	return nil
}

// wait blocks until the block in flight, if any, is paged out, and records
// it; it returns the block's failure.
func (b *Builder) wait() error {
	if !b.inFlight {
		return nil
	}
	sw := mAppendWait.Start()
	w := <-b.result
	sw.Stop()
	b.inFlight = false
	if w.err != nil {
		return w.err
	}
	b.m.blocks = append(b.m.blocks, w.meta)
	b.largest = max(b.largest, w.meta.words)
	return nil
}

// abort ends a failed build: it waits for the block in flight, drops every
// page the builder wrote and returns err, joined with the block's failure
// and a failure to drop.
func (b *Builder) abort(err error) error {
	b.done = true
	return errors.Join(err, b.wait(), b.bp.DropOwner(b.owner))
}

// writeBlock compresses d (or keeps it as UC groups), encodes it into page
// id and unpins the page, filling in meta's page size and layout.
func (b *Builder) writeBlock(d *la.Dense, id storage.PageID, meta *blockMeta) error {
	var cm *compress.Matrix
	if !b.opts.NoCompress {
		c := compress.Compress(d, compress.Options{CoCode: true})
		if float64(d.Rows()*d.Cols())/float64(compress.EncodedLen(c)) >= minRatio {
			cm, meta.compressed = c, true
		}
	}
	if cm == nil {
		cm = compress.Uncompressed(d)
	}
	meta.words = compress.EncodedLen(cm)
	page, err := b.bp.Pin(id, meta.words)
	if err != nil {
		return fmt.Errorf("ooc: AppendBlock: %w", err)
	}
	if err := compress.EncodeInto(page, cm); err != nil {
		b.bp.Unpin(id, false)
		return fmt.Errorf("ooc: AppendBlock: %w", err)
	}
	b.bp.Unpin(id, true)
	mBlocksBuilt.Inc()
	return nil
}

// Finish waits for the block in flight, flushes all dirty pages to disk (so
// the matrix survives pool eviction of any block) and returns the completed
// Matrix. On an error the builder's pages leave the pool.
func (b *Builder) Finish() (*Matrix, error) {
	if b.done {
		return nil, fmt.Errorf("ooc: Finish called twice")
	}
	if err := b.wait(); err != nil {
		return nil, b.abort(err)
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

// FromDense partitions m into blocks and pages them into bp. Each block is a
// view of m's rows, so the builder reads m in place and the only dense
// copies are those its encoders make. m must not change until FromDense
// returns. On an error nothing stays in the pool.
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
