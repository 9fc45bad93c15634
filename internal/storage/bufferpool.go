package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// PageID identifies a page: Owner scopes pages to one paged object (e.g. an
// ooc.Matrix) and Index is the page number within the owner.
type PageID struct {
	Owner int
	Index int
}

// PoolStats counts buffer pool events; used by the out-of-core experiments.
type PoolStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	SpillWrites int64
	SpillReads  int64
}

// BufferPool caches fixed-role float64 pages in memory up to a byte budget,
// evicting least-recently-used unpinned pages to disk. It is safe for
// concurrent use. Pages of different sizes share the one budget (compressed
// pages are smaller than dense ones); a pool of k uniform pages is the budget
// k·pageBytes.
type BufferPool struct {
	mu       sync.Mutex
	byteCap  int64 // max resident bytes
	resBytes int64 // current resident bytes
	dir      string
	resident map[PageID]*page
	onDisk   map[PageID]int // page id -> length (floats)
	tick     uint64
	nextOwn  int
	stats    PoolStats

	// Failure-injection hooks for tests; called before disk I/O when non-nil.
	readHook  func(PageID) error
	writeHook func(PageID) error
}

type page struct {
	id       PageID
	data     []float64
	dirty    bool
	pinned   int
	lastUsed uint64
}

// NewBufferPoolBytes creates a pool holding at most budget bytes of page data
// in memory, spilling to dir (created if needed). Pages of different sizes
// share the budget; a single page larger than the whole budget is still
// admitted (alone) so callers cannot deadlock on one oversized block.
func NewBufferPoolBytes(budget int64, dir string) (*BufferPool, error) {
	if budget < 8 {
		return nil, fmt.Errorf("storage: buffer pool byte budget %d < 8", budget)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: buffer pool dir: %w", err)
	}
	return &BufferPool{
		byteCap:  budget,
		dir:      dir,
		resident: make(map[PageID]*page),
		onDisk:   make(map[PageID]int),
	}, nil
}

// ParseByteSize parses a human-readable byte count for pool budgets: a
// non-negative integer with an optional case-insensitive B/KB/MB/GB suffix
// (powers of 1024). "64MB", "512kb", and "1048576" are all valid.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "GB"):
		mult, t = 1<<30, t[:len(t)-2]
	case strings.HasSuffix(t, "MB"):
		mult, t = 1<<20, t[:len(t)-2]
	case strings.HasSuffix(t, "KB"):
		mult, t = 1<<10, t[:len(t)-2]
	case strings.HasSuffix(t, "B"):
		t = t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("storage: byte size %q: want a non-negative integer with optional B/KB/MB/GB suffix", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("storage: byte size %q overflows", s)
	}
	return n * mult, nil
}

// RegisterOwner allocates a fresh owner id for a paged object.
func (bp *BufferPool) RegisterOwner() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.nextOwn++
	return bp.nextOwn
}

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the pool counters.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = PoolStats{}
}

// SetFailureHooks installs failure-injection hooks for tests. A nil hook
// disables injection for that direction.
func (bp *BufferPool) SetFailureHooks(read, write func(PageID) error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.readHook, bp.writeHook = read, write
}

// Pin fetches the page, loading from disk or allocating zeroed storage of
// size floats on first touch, pins it, and returns its data. A page's size is
// fixed at first touch: pinning an existing page with a different size is a
// caller bug and returns an error rather than silently handing back a slice
// of unexpected length. The caller must call Unpin (optionally marking dirty)
// when done.
func (bp *BufferPool) Pin(id PageID, size int) ([]float64, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.tick++
	if p, ok := bp.resident[id]; ok {
		if len(p.data) != size {
			return nil, fmt.Errorf("storage: Pin page %v: size %d floats, but resident page holds %d", id, size, len(p.data))
		}
		bp.stats.Hits++
		mBPHits.Inc()
		p.pinned++
		p.lastUsed = bp.tick
		return p.data, nil
	}
	if n, ok := bp.onDisk[id]; ok && n != size {
		return nil, fmt.Errorf("storage: Pin page %v: size %d floats, but page is on disk with %d", id, size, n)
	}
	bp.stats.Misses++
	mBPMisses.Inc()
	if err := bp.makeRoomLocked(size); err != nil {
		return nil, err
	}
	p := &page{id: id, lastUsed: bp.tick, pinned: 1}
	if n, ok := bp.onDisk[id]; ok {
		data, err := bp.loadLocked(id, n)
		if err != nil {
			return nil, err
		}
		p.data = data
		bp.stats.SpillReads++
		mBPSpillReads.Inc()
	} else {
		p.data = make([]float64, size)
	}
	bp.resident[id] = p
	bp.resBytes += 8 * int64(len(p.data))
	return p.data, nil
}

// Unpin releases a pinned page; dirty records that the caller mutated it.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	p, ok := bp.resident[id]
	if !ok || p.pinned == 0 {
		panic(fmt.Sprintf("storage: Unpin of non-pinned page %v", id))
	}
	p.pinned--
	if dirty {
		p.dirty = true
	}
}

// FlushAll writes every dirty resident page to disk (pages stay resident).
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, p := range bp.resident {
		if p.dirty {
			if err := bp.storeLocked(p); err != nil {
				return err
			}
			p.dirty = false
		}
	}
	return nil
}

// DropOwner discards all pages (memory and disk) belonging to owner. Spill
// files that cannot be removed are still forgotten by the pool, but the
// failures are collected and returned so callers see leaked disk space.
func (bp *BufferPool) DropOwner(owner int) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, p := range bp.resident {
		if id.Owner == owner {
			if p.pinned > 0 {
				return fmt.Errorf("storage: DropOwner %d: page %v still pinned", owner, id)
			}
			delete(bp.resident, id)
			bp.resBytes -= 8 * int64(len(p.data))
		}
	}
	var errs []error
	for id := range bp.onDisk {
		if id.Owner == owner {
			if err := os.Remove(bp.pagePath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				errs = append(errs, fmt.Errorf("storage: DropOwner %d: %w", owner, err))
			}
			delete(bp.onDisk, id)
		}
	}
	return errors.Join(errs...)
}

// Budget returns the byte budget the pool was created with.
func (bp *BufferPool) Budget() int64 { return bp.byteCap }

// ResidentBytes returns the bytes of page data currently held in memory.
func (bp *BufferPool) ResidentBytes() int64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.resBytes
}

// makeRoomLocked evicts LRU unpinned pages until a page of `need` floats fits
// under the byte budget. A page larger than the whole budget is admitted once
// the pool is empty, per the NewBufferPoolBytes contract.
func (bp *BufferPool) makeRoomLocked(need int) error {
	for len(bp.resident) > 0 && bp.resBytes+8*int64(need) > bp.byteCap {
		var victim *page
		for _, p := range bp.resident {
			if p.pinned > 0 {
				continue
			}
			if victim == nil || p.lastUsed < victim.lastUsed {
				victim = p
			}
		}
		if victim == nil {
			return fmt.Errorf("storage: buffer pool exhausted: all %d resident bytes pinned, need %d more", bp.resBytes, 8*int64(need))
		}
		if victim.dirty {
			if err := bp.storeLocked(victim); err != nil {
				return err
			}
		}
		delete(bp.resident, victim.id)
		bp.resBytes -= 8 * int64(len(victim.data))
		bp.stats.Evictions++
		mBPEvictions.Inc()
	}
	return nil
}

func (bp *BufferPool) pagePath(id PageID) string {
	return filepath.Join(bp.dir, fmt.Sprintf("p%d_%d.page", id.Owner, id.Index))
}

func (bp *BufferPool) storeLocked(p *page) error {
	if bp.writeHook != nil {
		if err := bp.writeHook(p.id); err != nil {
			return fmt.Errorf("storage: write page %v: %w", p.id, err)
		}
	}
	buf := make([]byte, 8*len(p.data))
	for i, v := range p.data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if err := os.WriteFile(bp.pagePath(p.id), buf, 0o644); err != nil {
		return fmt.Errorf("storage: write page %v: %w", p.id, err)
	}
	bp.onDisk[p.id] = len(p.data)
	bp.stats.SpillWrites++
	mBPSpillWrites.Inc()
	return nil
}

func (bp *BufferPool) loadLocked(id PageID, n int) ([]float64, error) {
	if bp.readHook != nil {
		if err := bp.readHook(id); err != nil {
			return nil, fmt.Errorf("storage: read page %v: %w", id, err)
		}
	}
	buf, err := os.ReadFile(bp.pagePath(id))
	if err != nil {
		return nil, fmt.Errorf("storage: read page %v: %w", id, err)
	}
	if len(buf) != 8*n {
		return nil, fmt.Errorf("storage: page %v has %d bytes, want %d", id, len(buf), 8*n)
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return data, nil
}
