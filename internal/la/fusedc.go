package la

import "dmml/internal/pool"

// Kernel compiler for fused programs (fused.go holds the entry points).
//
// compileFusedKernel lowers a validated FuseProgram into a tree of
// specialized Go closures: one closure per vector-valued op node,
// monomorphized at compile time over the opcode and the operand kinds
// (dense slice / scalar), so a tile is evaluated by one direct
// call chain. Scalar subtrees never reach the per-tile path at all —
// all-constant subtrees fold at compile time, and subtrees over dynamic
// scalars (scalar matrix inputs) are hoisted into a once-per-call prelude
// that writes a small scratch vector; a program whose root is scalar
// broadcasts that value into its output tile. On top of the closure tree, a
// structural pattern matcher recognizes the heavy-hitter template shapes
// (sigmoid chains, axpy cells, rowagg-over-product; see fusedflat.go) and
// replaces the whole tree with a single flat loop kernel.
//
// Kernels are compiled once per (program, input-kind signature) and cached
// on the FuseProgram. Closures capture only compile-time constants — op
// arguments, slot numbers, folded scalars — never per-call state: inputs
// and hoisted scalars travel through the pooled fuseCtx, so the steady
// state allocates nothing. Every program CompileFused accepts compiles.

// fkVec evaluates one vector-valued node of the closure tree over the flat
// element range [lo,hi), returning the node's tile (an input sub-slice or
// the scratch slice of the node's stack slot).
type fkVec func(c *fuseCtx, lo, hi int) []float64

// fusePreOp computes one hoisted dynamic-scalar node into sv; the prelude
// runs once per entry-point call, in dependency (postfix) order.
type fusePreOp func(ins []FusedInput, sv []float64)

// Flat template kernels (fusedflat.go); dst of flatCellFn is pre-sliced to
// [lo,hi).
type flatCellFn func(ins []FusedInput, sv, dst []float64, lo, hi int)
type flatSumFn func(ins []FusedInput, sv []float64, lo, hi int) float64
type flatRowFn func(ins []FusedInput, sv, v, dst []float64, cols, r0, r1 int)

// fusedKernel is one compiled specialization of a program.
type fusedKernel struct {
	root fkVec
	pre  []fusePreOp
	nsv  int // hoisted dynamic-scalar slots

	// Flat template kernels, set when the pattern matcher recognized the
	// whole tree; the closure tree remains valid alongside them.
	flatCell flatCellFn
	flatSum  flatSumFn
	flatRow  flatRowFn
	flat     string // matched template name, "" for plain closure trees
}

// Scalar operand kinds inside the compiler.
const (
	fkSConst   = iota // folded compile-time constant
	fkSInput          // ins[idx].S, a dynamic scalar input
	fkSDerived        // sv[idx], computed by the prelude
)

// fkSRef names a scalar value available to a kernel: a folded constant, a
// scalar input, or a prelude-computed slot. It is pure compile-time data,
// safe for closures to capture.
type fkSRef struct {
	kind int
	c    float64
	idx  int
}

func fkConst(v float64) fkSRef { return fkSRef{kind: fkSConst, c: v} }

// loadIn resolves the scalar against a call's inputs and prelude vector.
//
//dmml:noalloc
func (r fkSRef) loadIn(ins []FusedInput, sv []float64) float64 {
	switch r.kind {
	case fkSConst:
		return r.c
	case fkSInput:
		return ins[r.idx].S
	default:
		return sv[r.idx]
	}
}

//dmml:noalloc
func (r fkSRef) load(c *fuseCtx) float64 { return r.loadIn(c.ins, c.sv) }

// Input kinds, two bits each in the kernel-cache signature.
const (
	fkKindScalar = 1
	fkKindDense  = 2
)

// fuseKindSig packs the input kinds into a cache key: at most
// fuseMaxInputs two-bit kinds under a leading sentinel bit.
func fuseKindSig(ins []FusedInput) uint64 {
	sig := uint64(1)
	for i := range ins {
		if ins[i].IsScalar {
			sig = sig<<2 | fkKindScalar
		} else {
			sig = sig<<2 | fkKindDense
		}
	}
	return sig
}

// kernelFor returns the compiled kernel specialized for this input-kind
// mix, compiling and caching on first use.
func (p *FuseProgram) kernelFor(ins []FusedInput) *fusedKernel {
	sig := fuseKindSig(ins)
	if m := p.kernels.Load(); m != nil {
		if k, hit := (*m)[sig]; hit {
			return k
		}
	}
	return p.compileAndCache(sig, ins)
}

// compileAndCache compiles under the program's lock and publishes a
// copy-on-write cache map, so the hot path stays a single atomic load.
func (p *FuseProgram) compileAndCache(sig uint64, ins []FusedInput) *fusedKernel {
	p.kmu.Lock()
	defer p.kmu.Unlock()
	if m := p.kernels.Load(); m != nil {
		if k, hit := (*m)[sig]; hit {
			return k
		}
	}
	sw := mFusedCompileTimer.Start()
	k := compileFusedKernel(p, ins)
	sw.Stop()
	next := make(map[uint64]*fusedKernel, 4)
	if m := p.kernels.Load(); m != nil {
		for s, kk := range *m {
			next[s] = kk
		}
	}
	next[sig] = k
	p.kernels.Store(&next)
	return k
}

// prepare resolves the kernel for this call's inputs and runs its scalar
// prelude into pooled scratch; the caller releases sv via release.
//
//dmml:owns-scratch
func (p *FuseProgram) prepare(ins []FusedInput) (*fusedKernel, []float64) {
	k := p.kernelFor(ins)
	var sv []float64
	if k.nsv > 0 {
		sv = pool.GetF64(k.nsv)
		for _, op := range k.pre {
			op(ins, sv)
		}
	}
	return k, sv
}

func (p *FuseProgram) release(sv []float64) {
	if sv != nil {
		pool.PutF64(sv)
	}
}

// fkVal is one compile-time stack slot: a vector node under construction
// or a scalar reference, plus the structural node the pattern matcher
// walks.
type fkVal struct {
	vec  fkVec
	sref fkSRef
	node *fkNode
}

// compileFusedKernel lowers the program by symbolically executing its
// postfix ops over a compile-time stack, emitting one closure per
// vector-valued node. Slot numbers are the postfix program's stack
// positions, so the root lands in slot 0 and FusedCellInto's
// bind-scratch[0]-to-dst trick works. Uses only the KINDS of ins —
// closures must never capture the input values themselves.
func compileFusedKernel(p *FuseProgram, ins []FusedInput) *fusedKernel {
	k := &fusedKernel{}
	var stack [fuseMaxDepth]fkVal
	sp := 0
	for _, op := range p.ops {
		switch op.Code {
		case FuseConst:
			r := fkConst(op.Val)
			stack[sp] = fkVal{sref: r, node: &fkNode{scalar: true, sref: r}}
			sp++
		case FuseLoad:
			arg := op.Arg
			if ins[arg].IsScalar {
				r := fkSRef{kind: fkSInput, idx: arg}
				stack[sp] = fkVal{sref: r, node: &fkNode{scalar: true, sref: r}}
			} else {
				stack[sp] = fkVal{vec: fkLoadDense(arg), node: &fkNode{code: FuseLoad, arg: arg}}
			}
			sp++
		case FuseAdd, FuseSub, FuseMul, FuseDiv, FusePow:
			b := stack[sp-1]
			a := stack[sp-2]
			sp -= 2
			stack[sp] = k.lowerBin(op.Code, a, b, sp)
			sp++
		default: // unary
			stack[sp-1] = k.lowerUn(op.Code, stack[sp-1], sp-1)
		}
	}
	root := stack[0]
	if root.vec == nil {
		// Scalar-rooted program (no matrix input is loaded): the root
		// broadcasts the folded or prelude scalar over its slot's tile.
		k.root = fkFill(root.sref)
		return k
	}
	k.root = root.vec
	matchFlat(k, root.node)
	return k
}

// fkFill emits the root of a scalar-rooted program: slot 0's tile filled
// with the scalar.
func fkFill(s fkSRef) fkVec {
	return func(c *fuseCtx, lo, hi int) []float64 {
		d := c.scratch[0][:hi-lo]
		v := s.load(c)
		for i := range d {
			d[i] = v
		}
		return d
	}
}

// lowerBin emits the closure for a binary node at the given result slot.
func (k *fusedKernel) lowerBin(code FuseOpCode, a, b fkVal, slot int) fkVal {
	if a.vec == nil && b.vec == nil {
		return k.lowerScalarBin(code, a, b)
	}
	var v fkVec
	switch {
	case a.vec != nil && b.vec != nil:
		v = fkBinVV(code, a.vec, b.vec, slot)
	case a.vec != nil:
		v = fkBinVS(code, a.vec, b.sref, slot)
	default:
		v = fkBinSV(code, a.sref, b.vec, slot)
	}
	return fkVal{vec: v, node: &fkNode{code: code, l: a.node, r: b.node}}
}

// lowerScalarBin folds a constant×constant node outright and hoists any
// dynamic scalar×scalar node into the prelude.
func (k *fusedKernel) lowerScalarBin(code FuseOpCode, a, b fkVal) fkVal {
	if a.sref.kind == fkSConst && b.sref.kind == fkSConst {
		// The scalar op itself, folded once: bit-exact.
		r := fkConst(fuseScalarBin(code, a.sref.c, b.sref.c))
		return fkVal{sref: r, node: &fkNode{scalar: true, sref: r}}
	}
	idx := k.nsv
	k.nsv++
	ar, br := a.sref, b.sref
	k.pre = append(k.pre, func(ins []FusedInput, sv []float64) {
		sv[idx] = fuseScalarBin(code, ar.loadIn(ins, sv), br.loadIn(ins, sv))
	})
	r := fkSRef{kind: fkSDerived, idx: idx}
	return fkVal{sref: r, node: &fkNode{scalar: true, sref: r}}
}

// lowerUn emits the closure for a unary node (in place: result slot is the
// operand's slot).
func (k *fusedKernel) lowerUn(code FuseOpCode, a fkVal, slot int) fkVal {
	if a.vec == nil {
		if a.sref.kind == fkSConst {
			r := fkConst(fuseScalarUn(code, a.sref.c))
			return fkVal{sref: r, node: &fkNode{scalar: true, sref: r}}
		}
		idx := k.nsv
		k.nsv++
		ar := a.sref
		k.pre = append(k.pre, func(ins []FusedInput, sv []float64) {
			sv[idx] = fuseScalarUn(code, ar.loadIn(ins, sv))
		})
		r := fkSRef{kind: fkSDerived, idx: idx}
		return fkVal{sref: r, node: &fkNode{scalar: true, sref: r}}
	}
	return fkVal{vec: fkUn(code, a.vec, slot), node: &fkNode{code: code, l: a.node}}
}

// fkLoadDense returns a zero-copy load of a dense input's element range.
func fkLoadDense(arg int) fkVec {
	return func(c *fuseCtx, lo, hi int) []float64 {
		return c.ins[arg].D.data[lo:hi]
	}
}

// Loop selectors: resolve the opcode to its named tile kernel once, at
// compile time, so the emitted closure makes one bound call per tile
// instead of re-dispatching per op per tile.

func vvLoop(code FuseOpCode) func(dst, x, y []float64) {
	switch code {
	case FuseAdd:
		return vvAdd
	case FuseSub:
		return vvSub
	case FuseMul:
		return vvMul
	case FuseDiv:
		return vvDiv
	default:
		return vvPow
	}
}

func vsLoop(code FuseOpCode) func(dst, x []float64, s float64) {
	switch code {
	case FuseAdd:
		return vsAdd
	case FuseSub:
		return vsSub
	case FuseMul:
		return vsMul
	case FuseDiv:
		return vsDiv
	default:
		return vsPow
	}
}

func svLoop(code FuseOpCode) func(dst []float64, s float64, y []float64) {
	switch code {
	case FuseAdd:
		return svAdd
	case FuseSub:
		return svSub
	case FuseMul:
		return svMul
	case FuseDiv:
		return svDiv
	default:
		return svPow
	}
}

func uLoopC(code FuseOpCode) func(dst, x []float64) {
	switch code {
	case FuseNeg:
		return uNeg
	case FuseSq:
		return uSq
	case FuseExp:
		return uExp
	case FuseLog:
		return uLog
	case FuseSqrt:
		return uSqrt
	case FuseAbs:
		return uAbs
	default:
		// The tile-vectorized sigmoid (bit-exact against Sigmoid;
		// fusedexp.go).
		return sigmoidTile
	}
}

// fkBinVV emits vector∘vector. The result slot may alias the left
// operand's storage (same stack position); the loops are elementwise
// forward, so in-place updates are safe.
func fkBinVV(code FuseOpCode, l, r fkVec, slot int) fkVec {
	loop := vvLoop(code)
	return func(c *fuseCtx, lo, hi int) []float64 {
		x := l(c, lo, hi)
		y := r(c, lo, hi)
		d := c.scratch[slot][:hi-lo]
		loop(d, x, y)
		return d
	}
}

// fkBinVS emits vector∘scalar, with a tighter closure when the scalar
// folded to a compile-time constant.
func fkBinVS(code FuseOpCode, l fkVec, s fkSRef, slot int) fkVec {
	loop := vsLoop(code)
	if s.kind == fkSConst {
		cv := s.c
		return func(c *fuseCtx, lo, hi int) []float64 {
			x := l(c, lo, hi)
			d := c.scratch[slot][:hi-lo]
			loop(d, x, cv)
			return d
		}
	}
	return func(c *fuseCtx, lo, hi int) []float64 {
		x := l(c, lo, hi)
		d := c.scratch[slot][:hi-lo]
		loop(d, x, s.load(c))
		return d
	}
}

// fkBinSV emits scalar∘vector.
func fkBinSV(code FuseOpCode, s fkSRef, r fkVec, slot int) fkVec {
	loop := svLoop(code)
	if s.kind == fkSConst {
		cv := s.c
		return func(c *fuseCtx, lo, hi int) []float64 {
			y := r(c, lo, hi)
			d := c.scratch[slot][:hi-lo]
			loop(d, cv, y)
			return d
		}
	}
	return func(c *fuseCtx, lo, hi int) []float64 {
		y := r(c, lo, hi)
		d := c.scratch[slot][:hi-lo]
		loop(d, s.load(c), y)
		return d
	}
}

// fkUn emits a unary node, in place over its operand's slot.
func fkUn(code FuseOpCode, l fkVec, slot int) fkVec {
	loop := uLoopC(code)
	return func(c *fuseCtx, lo, hi int) []float64 {
		x := l(c, lo, hi)
		d := c.scratch[slot][:hi-lo]
		loop(d, x)
		return d
	}
}
