package la

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dmml/internal/pool"
)

// Fused operator pipelines (SPOOF-lite). The DML compiler collapses
// single-consumer elementwise regions into a postfix micro-op program; this
// file validates such programs and drives their compiled kernels (fusedc.go)
// over row tiles, so a whole expression tree makes one pass over its inputs
// and materializes (at most) one output:
//
//   - Cell template: FusedCellInto evaluates the program per element into a
//     single dst matrix — no intermediate Dense per operator.
//   - RowAgg template: FusedSum / FusedRowSumsInto / FusedColSumsInto /
//     FusedMatVecInto reduce the program's virtual result without
//     materializing it at all.
//
// Intermediate tiles live in one pool.GetF64 scratch block per worker, so
// steady-state fused evaluation allocates nothing. Dense inputs are loaded
// as zero-copy sub-slices.

// FuseOpCode enumerates the micro-ops of a fused program.
type FuseOpCode uint8

const (
	// FuseLoad pushes input Arg (a conformable matrix tile or a scalar).
	FuseLoad FuseOpCode = iota
	// FuseConst pushes the literal Val.
	FuseConst
	// Binary ops: pop b, pop a, push a∘b.
	FuseAdd
	FuseSub
	FuseMul
	FuseDiv
	FusePow
	// Unary ops: pop a, push f(a).
	FuseNeg
	FuseSq
	FuseExp
	FuseLog
	FuseSqrt
	FuseAbs
	FuseSigmoid
)

// FusedOp is one instruction of a postfix fused program.
type FusedOp struct {
	Code FuseOpCode
	Arg  int     // input index for FuseLoad
	Val  float64 // literal for FuseConst
}

// FusedInput is one operand of a fused program: a scalar broadcast or a
// dense matrix. Matrix inputs must all share the logical rows×cols shape
// passed to the execution entry points.
type FusedInput struct {
	IsScalar bool
	S        float64
	D        *Dense
}

// ScalarInput wraps a broadcast scalar operand.
func ScalarInput(s float64) FusedInput { return FusedInput{IsScalar: true, S: s} }

// DenseInput wraps a dense matrix operand.
func DenseInput(m *Dense) FusedInput { return FusedInput{D: m} }

const (
	// fusedTileW is the tile width in elements: large enough to amortize
	// the per-tile closure calls, small enough that depth·tile scratch (and
	// the tile itself) stay L1/L2-resident.
	fusedTileW = 512
	// fuseMaxDepth bounds the operand stack; expression trees deeper than
	// this are rejected at compile time (the DML fuser never builds them).
	fuseMaxDepth = 16
	// fuseMaxInputs bounds the input list: the kernel cache packs one
	// two-bit input kind per input under a sentinel bit into a uint64 key.
	fuseMaxInputs = 31
)

// FuseProgram is a validated fused micro-op program ready for execution.
// Every program CompileFused accepts runs on a compiled kernel, specialized
// and cached once per input-kind signature (fusedc.go).
type FuseProgram struct {
	ops   []FusedOp
	nin   int // number of inputs
	depth int // maximum operand-stack depth
	arith int // arithmetic ops per element (excludes loads/consts)

	kmu     sync.Mutex
	kernels atomic.Pointer[map[uint64]*fusedKernel]
}

// CompileFused validates a postfix program over nin inputs: every opcode
// must be known, stack effects must balance to exactly one result, loads
// must be in range, and the input count and operand stack must fit the
// kernel compiler.
func CompileFused(ops []FusedOp, nin int) (*FuseProgram, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("la: CompileFused empty program")
	}
	if nin > fuseMaxInputs {
		return nil, fmt.Errorf("la: CompileFused %d inputs exceed %d", nin, fuseMaxInputs)
	}
	depth, maxDepth, arith := 0, 0, 0
	for i, op := range ops {
		switch op.Code {
		case FuseLoad:
			if op.Arg < 0 || op.Arg >= nin {
				return nil, fmt.Errorf("la: CompileFused op %d loads input %d of %d", i, op.Arg, nin)
			}
			depth++
		case FuseConst:
			depth++
		case FuseAdd, FuseSub, FuseMul, FuseDiv, FusePow:
			if depth < 2 {
				return nil, fmt.Errorf("la: CompileFused op %d: binary op on stack depth %d", i, depth)
			}
			depth--
			arith++
		case FuseNeg, FuseSq, FuseExp, FuseLog, FuseSqrt, FuseAbs, FuseSigmoid:
			if depth < 1 {
				return nil, fmt.Errorf("la: CompileFused op %d: unary op on empty stack", i)
			}
			arith++
		default:
			return nil, fmt.Errorf("la: CompileFused op %d: unknown opcode %d", i, op.Code)
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	if depth != 1 {
		return nil, fmt.Errorf("la: CompileFused leaves %d values on the stack, want 1", depth)
	}
	if maxDepth > fuseMaxDepth {
		return nil, fmt.Errorf("la: CompileFused stack depth %d exceeds %d", maxDepth, fuseMaxDepth)
	}
	return &FuseProgram{ops: ops, nin: nin, depth: maxDepth, arith: arith}, nil
}

// ArithOps returns the arithmetic operations applied per element — the
// number of intermediate matrices a naive evaluation would materialize.
func (p *FuseProgram) ArithOps() int { return p.arith }

// fuseCtx is the per-worker kernel state. Closure kernels capture no
// per-call state, so the inputs, hoisted dynamic scalars, and logical column
// count of the current call travel here, beside one tile of scratch per
// stack slot. Contexts are recycled through a pool.Freelist and their
// scratch comes from pool.GetF64, so a steady-state fused loop performs no
// heap allocation.
type fuseCtx struct {
	scratch [fuseMaxDepth][]float64
	buf     []float64

	ins  []FusedInput
	sv   []float64
	cols int
}

var fuseCtxs = pool.Freelist[fuseCtx]{New: func() *fuseCtx { return new(fuseCtx) }}

// getFuseCtx hands out a per-worker kernel context whose scratch block
// deliberately outlives this call: putFuseCtx releases it.
//
//dmml:owns-scratch
func getFuseCtx(depth int) *fuseCtx {
	ctx := fuseCtxs.Get()
	ctx.buf = pool.GetF64(depth * fusedTileW)
	for i := 0; i < depth; i++ {
		ctx.scratch[i] = ctx.buf[i*fusedTileW : (i+1)*fusedTileW]
	}
	return ctx
}

func putFuseCtx(ctx *fuseCtx) {
	pool.PutF64(ctx.buf)
	ctx.buf = nil
	for i := range ctx.scratch {
		ctx.scratch[i] = nil
	}
	ctx.ins, ctx.sv, ctx.cols = nil, nil, 0
	fuseCtxs.Put(ctx)
}

// fusedCheckInputs validates an input list against the program and the
// logical shape.
func fusedCheckInputs(p *FuseProgram, ins []FusedInput, rows, cols int) {
	if len(ins) != p.nin {
		panic(fmt.Sprintf("la: fused program wants %d inputs, got %d", p.nin, len(ins)))
	}
	for i, in := range ins {
		switch {
		case in.IsScalar:
		case in.D != nil:
			if in.D.rows != rows || in.D.cols != cols {
				panic(fmt.Sprintf("la: fused dense input %d is %dx%d, want %dx%d", i, in.D.rows, in.D.cols, rows, cols))
			}
		default:
			panic(fmt.Sprintf("la: fused input %d is neither scalar nor matrix", i))
		}
	}
}

// FusedCell evaluates the program elementwise into a new rows×cols matrix.
func FusedCell(p *FuseProgram, ins []FusedInput, rows, cols int) *Dense {
	return FusedCellInto(NewDense(rows, cols), p, ins)
}

// FusedCellInto evaluates the program elementwise into out (overwriting it)
// and returns out. The whole expression tree runs as one pass: each tile of
// the output is produced by the program's compiled kernel, with the root
// writing straight into out's storage. Large outputs split their tile sweep
// across the worker pool; the serial regime allocates nothing.
func FusedCellInto(out *Dense, p *FuseProgram, ins []FusedInput) *Dense {
	rows, cols := out.rows, out.cols
	fusedCheckInputs(p, ins, rows, cols)
	k, sv := p.prepare(ins)
	if k.flatCell != nil {
		mFusedFlat.Inc()
	}
	sw := mFusedCellTimer.Start()
	defer sw.Stop()
	mFusedCellCalls.Inc()
	total := rows * cols
	mFlops.Add(int64(p.arith) * int64(total))
	if !pool.Parallel(total * (p.arith + 1)) {
		fusedCellRange(p, k, ins, sv, out.data, cols, 0, total)
	} else {
		nt := (total + fusedTileW - 1) / fusedTileW
		pool.Do(nt, pool.Grain(nt, fusedTileW*(p.arith+1), 0), func(t0, t1 int) {
			hi := t1 * fusedTileW
			if hi > total {
				hi = total
			}
			fusedCellRange(p, k, ins, sv, out.data, cols, t0*fusedTileW, hi)
		})
	}
	p.release(sv)
	return out
}

func fusedCellRange(p *FuseProgram, k *fusedKernel, ins []FusedInput, sv, dstAll []float64, cols, lo, hi int) {
	if k.flatCell != nil {
		// Fully specialized template: one pass, no closure chain, no stack
		// scratch.
		k.flatCell(ins, sv, dstAll[lo:hi], lo, hi)
		return
	}
	ctx := getFuseCtx(p.depth)
	ctx.cellTiles(k, ins, sv, dstAll, cols, lo, hi)
	putFuseCtx(ctx)
}

// cellTiles runs k's closure tree over [lo,hi) tile by tile into
// dstAll[lo:hi], on c's operand-stack scratch.
func (c *fuseCtx) cellTiles(k *fusedKernel, ins []FusedInput, sv, dstAll []float64, cols, lo, hi int) {
	c.ins, c.sv, c.cols = ins, sv, cols
	for at := lo; at < hi; at += fusedTileW {
		end := min(at+fusedTileW, hi)
		dst := dstAll[at:end]
		// Bind slot 0 to the output tile: the root lands its vector there,
		// so no copy-out pass is needed.
		c.scratch[0] = dst
		if res := k.root(c, at, end); &res[0] != &dst[0] {
			copy(dst, res) // pure-load program: result aliases an input
		}
	}
}

// FusedSum reduces the program's virtual rows×cols result to its scalar sum
// without materializing it. The tiles are summed in the fixed chunks of
// pool.Grain through pool.Reduce — and the serial regime walks the same
// chunks in the same order — so the result is bit-identical across runs and
// GOMAXPROCS.
func FusedSum(p *FuseProgram, ins []FusedInput, rows, cols int) float64 {
	fusedCheckInputs(p, ins, rows, cols)
	total := rows * cols
	k, sv := p.prepare(ins)
	if k.flatSum != nil {
		mFusedFlat.Inc()
	}
	sw := mFusedAggTimer.Start()
	defer sw.Stop()
	mFusedAggCalls.Inc()
	mFlops.Add(int64(p.arith+1) * int64(total))
	nt, tileWork := (total+fusedTileW-1)/fusedTileW, fusedTileW*(p.arith+1)
	sum := pool.GetF64Zeroed(1)
	if pool.Parallel(nt * tileWork) {
		pool.Reduce(sum, nt, tileWork, func(acc []float64, t0, t1 int) {
			acc[0] += fusedSumRange(p, k, ins, sv, cols, t0*fusedTileW, min(t1*fusedTileW, total))
		})
	} else {
		pool.ReduceSerial(sum, nt, tileWork, func(acc []float64, t0, t1 int) {
			acc[0] += fusedSumRange(p, k, ins, sv, cols, t0*fusedTileW, min(t1*fusedTileW, total))
		})
	}
	s := sum[0]
	pool.PutF64(sum)
	p.release(sv)
	return s
}

func fusedSumRange(p *FuseProgram, k *fusedKernel, ins []FusedInput, sv []float64, cols, lo, hi int) float64 {
	if k.flatSum != nil {
		return k.flatSum(ins, sv, lo, hi)
	}
	ctx := getFuseCtx(p.depth)
	ctx.ins, ctx.sv, ctx.cols = ins, sv, cols
	var s float64
	for at := lo; at < hi; at += fusedTileW {
		s += fuseSumVec(k.root(ctx, at, min(at+fusedTileW, hi)))
	}
	putFuseCtx(ctx)
	return s
}

// FusedRowSumsInto reduces each virtual row of the program's result to its
// sum, writing dst[i] for row i. dst must have length rows. Rows split
// across the pool with disjoint writes; nothing is materialized.
func FusedRowSumsInto(dst []float64, p *FuseProgram, ins []FusedInput, rows, cols int) []float64 {
	return fusedRowVec(dst, p, ins, rows, cols, nil)
}

// FusedMatVecInto computes (program result) × v into dst without
// materializing the matrix. dst must have length rows and v length cols.
func FusedMatVecInto(dst []float64, p *FuseProgram, ins []FusedInput, rows, cols int, v []float64) []float64 {
	if len(v) != cols {
		panic(fmt.Sprintf("la: FusedMatVecInto v len %d for %d cols", len(v), cols))
	}
	return fusedRowVec(dst, p, ins, rows, cols, v)
}

func fusedRowVec(dst []float64, p *FuseProgram, ins []FusedInput, rows, cols int, v []float64) []float64 {
	fusedCheckInputs(p, ins, rows, cols)
	if len(dst) != rows {
		panic(fmt.Sprintf("la: fused row aggregate dst len %d for %d rows", len(dst), rows))
	}
	k, sv := p.prepare(ins)
	if k.flatRow != nil {
		mFusedFlat.Inc()
	}
	sw := mFusedAggTimer.Start()
	defer sw.Stop()
	mFusedAggCalls.Inc()
	mFlops.Add(int64(p.arith+1) * int64(rows) * int64(cols))
	if !pool.Parallel(rows * cols * (p.arith + 1)) {
		fusedRowVecRange(p, k, ins, sv, cols, v, dst, 0, rows)
	} else {
		pool.Do(rows, pool.Grain(rows, cols*(p.arith+1), 0), func(r0, r1 int) {
			fusedRowVecRange(p, k, ins, sv, cols, v, dst, r0, r1)
		})
	}
	p.release(sv)
	return dst
}

// fusedRowVecRange fills dst[r0:r1) with per-row sums (v == nil) or row·v
// dot products. Narrow matrices batch several rows per tile so the closure
// calls amortize; wide rows chunk along columns instead.
func fusedRowVecRange(p *FuseProgram, k *fusedKernel, ins []FusedInput, sv []float64, cols int, v, dst []float64, r0, r1 int) {
	if k.flatRow != nil {
		k.flatRow(ins, sv, v, dst, cols, r0, r1)
		return
	}
	ctx := getFuseCtx(p.depth)
	ctx.ins, ctx.sv, ctx.cols = ins, sv, cols
	if cols <= fusedTileW {
		rowsPerTile := fusedTileW / cols
		for r := r0; r < r1; r += rowsPerTile {
			rEnd := min(r+rowsPerTile, r1)
			vec := k.root(ctx, r*cols, rEnd*cols)
			for i := r; i < rEnd; i++ {
				seg := vec[(i-r)*cols : (i-r+1)*cols]
				if v == nil {
					dst[i] = fuseSumVec(seg)
				} else {
					dst[i] = Dot(seg, v)
				}
			}
		}
	} else {
		for i := r0; i < r1; i++ {
			var s float64
			for c0 := 0; c0 < cols; c0 += fusedTileW {
				c1 := min(c0+fusedTileW, cols)
				vec := k.root(ctx, i*cols+c0, i*cols+c1)
				if v == nil {
					s += fuseSumVec(vec)
				} else {
					s += Dot(vec, v[c0:c1])
				}
			}
			dst[i] = s
		}
	}
	putFuseCtx(ctx)
}

// FusedColSumsInto reduces each virtual column of the program's result to
// its sum. dst must have length cols. Rows are summed in the fixed chunks of
// pool.Grain through pool.Reduce, so the result is bit-identical at every
// core count.
func FusedColSumsInto(dst []float64, p *FuseProgram, ins []FusedInput, rows, cols int) []float64 {
	fusedCheckInputs(p, ins, rows, cols)
	if len(dst) != cols {
		panic(fmt.Sprintf("la: FusedColSumsInto dst len %d for %d cols", len(dst), cols))
	}
	k, sv := p.prepare(ins)
	sw := mFusedAggTimer.Start()
	defer sw.Stop()
	mFusedAggCalls.Inc()
	mFlops.Add(int64(p.arith+1) * int64(rows) * int64(cols))
	for j := range dst {
		dst[j] = 0
	}
	if rowWork := cols * (p.arith + 1); pool.Parallel(rows * rowWork) {
		pool.Reduce(dst, rows, rowWork, func(acc []float64, r0, r1 int) {
			fusedColSumsRange(p, k, ins, sv, cols, acc, r0, r1)
		})
	} else {
		pool.ReduceSerial(dst, rows, rowWork, func(acc []float64, r0, r1 int) {
			fusedColSumsRange(p, k, ins, sv, cols, acc, r0, r1)
		})
	}
	p.release(sv)
	return dst
}

func fusedColSumsRange(p *FuseProgram, k *fusedKernel, ins []FusedInput, sv []float64, cols int, acc []float64, r0, r1 int) {
	ctx := getFuseCtx(p.depth)
	ctx.ins, ctx.sv, ctx.cols = ins, sv, cols
	if cols <= fusedTileW {
		rowsPerTile := fusedTileW / cols
		for r := r0; r < r1; r += rowsPerTile {
			rEnd := min(r+rowsPerTile, r1)
			vec := k.root(ctx, r*cols, rEnd*cols)
			for i := 0; i < rEnd-r; i++ {
				Axpy(1, vec[i*cols:(i+1)*cols], acc)
			}
		}
	} else {
		for i := r0; i < r1; i++ {
			for c0 := 0; c0 < cols; c0 += fusedTileW {
				c1 := min(c0+fusedTileW, cols)
				Axpy(1, k.root(ctx, i*cols+c0, i*cols+c1), acc[c0:c1])
			}
		}
	}
	putFuseCtx(ctx)
}

// fuseSumVec sums a tile with a 4-way unrolled accumulator chain.
//
//dmml:noalloc
func fuseSumVec(x []float64) float64 {
	var s, s0, s1, s2, s3 float64
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i]
		s1 += x[i+1]
		s2 += x[i+2]
		s3 += x[i+3]
	}
	for ; i < n; i++ {
		s += x[i]
	}
	return s + s0 + s1 + s2 + s3
}

//dmml:noalloc
func fuseScalarBin(code FuseOpCode, a, b float64) float64 {
	switch code {
	case FuseAdd:
		return a + b
	case FuseSub:
		return a - b
	case FuseMul:
		return a * b
	case FuseDiv:
		return a / b
	default: // FusePow
		return math.Pow(a, b)
	}
}

//dmml:noalloc
func fuseScalarUn(code FuseOpCode, a float64) float64 {
	switch code {
	case FuseNeg:
		return -a
	case FuseSq:
		return a * a
	case FuseExp:
		return math.Exp(a)
	case FuseLog:
		return math.Log(a)
	case FuseSqrt:
		return math.Sqrt(a)
	case FuseAbs:
		return math.Abs(a)
	default: // FuseSigmoid
		return Sigmoid(a)
	}
}

// Tile loop kernels. Each named function is one micro-op's inner loop over
// a tile, bound by the kernel compiler's closure constructors (fusedc.go);
// each rounds exactly like the scalar op, so a fused tile equals the unfused
// operator sequence bit for bit. The hot vector-vector and vector-scalar
// adds/subs/muls are 4-way unrolled like Dot; dst may alias an operand
// (in-place update of the same stack slot).

//dmml:noalloc
func vvAdd(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] + y[i]
		dst[i+1] = x[i+1] + y[i+1]
		dst[i+2] = x[i+2] + y[i+2]
		dst[i+3] = x[i+3] + y[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] + y[i]
	}
}

//dmml:noalloc
func vvSub(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] - y[i]
		dst[i+1] = x[i+1] - y[i+1]
		dst[i+2] = x[i+2] - y[i+2]
		dst[i+3] = x[i+3] - y[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] - y[i]
	}
}

//dmml:noalloc
func vvMul(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] * y[i]
		dst[i+1] = x[i+1] * y[i+1]
		dst[i+2] = x[i+2] * y[i+2]
		dst[i+3] = x[i+3] * y[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] * y[i]
	}
}

//dmml:noalloc
func vvDiv(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] / y[i]
	}
}

//dmml:noalloc
func vvPow(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Pow(x[i], y[i])
	}
}

//dmml:noalloc
func vsAdd(dst, x []float64, s float64) {
	x = x[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] + s
		dst[i+1] = x[i+1] + s
		dst[i+2] = x[i+2] + s
		dst[i+3] = x[i+3] + s
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] + s
	}
}

//dmml:noalloc
func vsSub(dst, x []float64, s float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = x[i] - s
	}
}

//dmml:noalloc
func vsMul(dst, x []float64, s float64) {
	x = x[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] * s
		dst[i+1] = x[i+1] * s
		dst[i+2] = x[i+2] * s
		dst[i+3] = x[i+3] * s
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] * s
	}
}

//dmml:noalloc
func vsDiv(dst, x []float64, s float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = x[i] / s
	}
}

//dmml:noalloc
func vsPow(dst, x []float64, s float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Pow(x[i], s)
	}
}

// svAdd and svMul delegate to their vs twins: IEEE addition and
// multiplication are commutative bit for bit, so s∘y and y∘s agree exactly.

//dmml:noalloc
func svAdd(dst []float64, s float64, y []float64) { vsAdd(dst, y, s) }

//dmml:noalloc
func svMul(dst []float64, s float64, y []float64) { vsMul(dst, y, s) }

//dmml:noalloc
func svSub(dst []float64, s float64, y []float64) {
	y = y[:len(dst)]
	for i := range dst {
		dst[i] = s - y[i]
	}
}

//dmml:noalloc
func svDiv(dst []float64, s float64, y []float64) {
	y = y[:len(dst)]
	for i := range dst {
		dst[i] = s / y[i]
	}
}

//dmml:noalloc
func svPow(dst []float64, s float64, y []float64) {
	y = y[:len(dst)]
	for i := range dst {
		dst[i] = math.Pow(s, y[i])
	}
}

//dmml:noalloc
func uNeg(dst, x []float64) {
	x = x[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = -x[i]
		dst[i+1] = -x[i+1]
		dst[i+2] = -x[i+2]
		dst[i+3] = -x[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = -x[i]
	}
}

//dmml:noalloc
func uSq(dst, x []float64) {
	x = x[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = x[i] * x[i]
		dst[i+1] = x[i+1] * x[i+1]
		dst[i+2] = x[i+2] * x[i+2]
		dst[i+3] = x[i+3] * x[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] * x[i]
	}
}

//dmml:noalloc
func uExp(dst, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Exp(x[i])
	}
}

//dmml:noalloc
func uLog(dst, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Log(x[i])
	}
}

//dmml:noalloc
func uSqrt(dst, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Sqrt(x[i])
	}
}

//dmml:noalloc
func uAbs(dst, x []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Abs(x[i])
	}
}
