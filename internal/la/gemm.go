package la

import "dmml/internal/pool"

// Cache-blocked GEMM in the Goto/BLIS style: the k-dimension is split into
// KC-deep slabs, B slabs are packed once into an NR-interleaved panel shared
// (read-only) by all workers, and each worker packs an MC×KC slab of A into
// an MR-interleaved panel before sweeping a register-tiled MR×NR micro-kernel
// over it. Packing turns the strided accesses of the naive loops into unit
// stride for the micro-kernel, whose 8 accumulators live in registers for
// the whole KC-deep inner loop. The 2×4 tile is deliberate: with the 2
// operand loads and loop state it needs ~14 live values, which fits the 16
// SSE registers; a 4×4 tile needs ~24 and spills, halving throughput.
//
// Parallelism is over MC row blocks of A via the shared worker pool with
// dynamic chunk scheduling, so an A slab that finishes early (e.g. fewer
// flops retired due to denormals or cache luck) does not leave its worker
// idle.
const (
	gemmMR = 2   // micro-kernel rows
	gemmNR = 4   // micro-kernel cols
	gemmKC = 256 // k-slab depth: A micro-panel (KC×MR) ~8 KB, L1-resident
	gemmMC = 32  // A slab rows: packed slab (MC×KC) ~64 KB, L2-resident
	gemmNC = 512 // B slab cols bound: packed slab ≤ KC×NC ~1 MB, shared
)

// gemmBlockedMinFlops gates the blocked path: below it, packing overhead and
// the loss of the ikj kernel's zero-skipping outweigh the cache wins. A var
// so tests can force either path.
var gemmBlockedMinFlops = 1 << 21

// gemmUseBlocked decides the kernel for an (m×k)·(k×n) product. The ikj
// streaming kernel skips zero A elements, so clearly-sparse inputs stay on
// it; the O(m·k) scan is ~1/n of the multiply cost.
func gemmUseBlocked(a *Dense, n int) bool {
	if a.rows*a.cols*n < gemmBlockedMinFlops || a.cols < 2 || n < 2 {
		return false
	}
	return a.Sparsity() < 0.5
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// K-split GEMM for skinny products (small m×n output, long inner dimension),
// the shape of Xᵀ·X-style normal equations with tall X. The ikj kernel
// re-streams all of B for every output row, turning a tiny-output product
// into a memory-bound sweep of m·K·n bytes; here the loop order is k-outer,
// so A and B are each read exactly once while the whole output stays
// cache-resident. The k-range is split across the pool with per-chunk
// partial outputs merged in chunk order — the only parallelizable dimension
// when m and n are both small.
const (
	kSplitMaxOut = 1 << 12 // split over k only when m*n fits L1 comfortably
	kSplitMinK   = 256
)

// gemmKAccum adds a[0:m, k0:k1] × b[k0:k1, 0:n] into the row-major m×n
// buffer acc.
//
//dmml:noalloc
func gemmKAccum(a, b *Dense, acc []float64, k0, k1 int) {
	n := b.cols
	for k := k0; k < k1; k++ {
		brow := b.data[k*n : (k+1)*n]
		for i := 0; i < a.rows; i++ {
			av := a.data[i*a.cols+k]
			if av == 0 {
				continue
			}
			arow := acc[i*n : (i+1)*n]
			for j, bv := range brow {
				arow[j] += av * bv
			}
		}
	}
}

// gemmKSplit computes out += a × b as a reduction over fixed chunks of the k
// dimension. out must be zeroed (or hold a partial sum).
func gemmKSplit(a, b, out *Dense) {
	pool.Reduce(out.data, a.cols, a.rows*b.cols, func(acc []float64, lo, hi int) {
		gemmKAccum(a, b, acc, lo, hi)
	})
}

// packA writes the mc×kc slab of a at (i0,k0) into dst as column-major
// micro-panels of gemmMR rows, zero-padding the row remainder. dst must hold
// roundUp(mc,gemmMR)*kc values.
//
//dmml:noalloc
func packA(dst []float64, a *Dense, i0, mc, k0, kc int) {
	at := 0
	for ip := 0; ip < mc; ip += gemmMR {
		panel := dst[at : at+kc*gemmMR]
		for r := 0; r < gemmMR; r++ {
			if ip+r >= mc {
				for k := 0; k < kc; k++ {
					panel[k*gemmMR+r] = 0
				}
				continue
			}
			arow := a.data[(i0+ip+r)*a.cols+k0:]
			for k := 0; k < kc; k++ {
				panel[k*gemmMR+r] = arow[k]
			}
		}
		at += kc * gemmMR
	}
}

// packB writes the kc×nc slab of b at (k0,j0) into dst as row-major
// micro-panels of gemmNR columns, zero-padding the column remainder. dst must
// hold kc*roundUp(nc,gemmNR) values.
//
//dmml:noalloc
func packB(dst []float64, b *Dense, k0, kc, j0, nc int) {
	ncPad := roundUp(nc, gemmNR)
	for k := 0; k < kc; k++ {
		brow := b.data[(k0+k)*b.cols+j0:]
		for jp := 0; jp < ncPad; jp += gemmNR {
			panel := dst[(jp/gemmNR)*kc*gemmNR+k*gemmNR:]
			for c := 0; c < gemmNR; c++ {
				if jp+c < nc {
					panel[c] = brow[jp+c]
				} else {
					panel[c] = 0
				}
			}
		}
	}
}

// gemmMicro accumulates a gemmMR×gemmNR tile of A·B into out at (i0,j0),
// given packed micro-panels ap (kc×MR, column-major) and bp (kc×NR,
// row-major). mValid/nValid bound the writeback for edge tiles; the
// accumulation itself always runs the full padded tile (padding is zero).
//
//dmml:noalloc
func gemmMicro(kc int, ap, bp []float64, out *Dense, i0, j0, mValid, nValid int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	ap = ap[:2*kc]
	bp = bp[:4*kc]
	for len(ap) >= 2 && len(bp) >= 4 {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[2:]
		bp = bp[4:]
	}
	tile := [gemmMR][gemmNR]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
	}
	if mValid > gemmMR {
		mValid = gemmMR
	}
	if nValid > gemmNR {
		nValid = gemmNR
	}
	for r := 0; r < mValid; r++ {
		orow := out.data[(i0+r)*out.cols+j0:]
		for c := 0; c < nValid; c++ {
			orow[c] += tile[r][c]
		}
	}
}

// gemmBlocked computes out += a × b with the packed, tiled kernel. out must
// be zero (or hold a partial sum to accumulate onto) and correctly sized.
func gemmBlocked(a, b, out *Dense) {
	m, k, n := a.rows, a.cols, b.cols
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncPad := roundUp(nc, gemmNR)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			bBuf := pool.GetF64(kc * ncPad)
			packB(bBuf, b, pc, kc, jc, nc)
			nBlocks := (m + gemmMC - 1) / gemmMC
			pool.Do(nBlocks, 1, func(lo, hi int) {
				aBuf := pool.GetF64(roundUp(gemmMC, gemmMR) * kc)
				for blk := lo; blk < hi; blk++ {
					i0 := blk * gemmMC
					mc := min(gemmMC, m-i0)
					mcPad := roundUp(mc, gemmMR)
					packA(aBuf[:mcPad*kc], a, i0, mc, pc, kc)
					for jr := 0; jr < ncPad; jr += gemmNR {
						bp := bBuf[(jr/gemmNR)*kc*gemmNR:][:kc*gemmNR]
						for ir := 0; ir < mcPad; ir += gemmMR {
							ap := aBuf[(ir/gemmMR)*kc*gemmMR:][:kc*gemmMR]
							gemmMicro(kc, ap, bp, out, i0+ir, jc+jr, mc-ir, nc-jr)
						}
					}
				}
				pool.PutF64(aBuf)
			})
			pool.PutF64(bBuf)
		}
	}
}
