package dml

import (
	"fmt"
	"math"
)

// Shape describes an expression's dimensions when statically known. It is
// the coarse, fully-known-or-nothing view used by the public Optimize API;
// the analyzer works on the richer AbsShape lattice below and converts.
type Shape struct {
	Rows, Cols int
	Scalar     bool
	Known      bool
}

func scalarShape() Shape      { return Shape{Scalar: true, Known: true} }
func matShape(r, c int) Shape { return Shape{Rows: r, Cols: c, Known: true} }

// ShapesFromEnv derives static shapes from runtime bindings.
func ShapesFromEnv(env Env) map[string]Shape {
	out := make(map[string]Shape, len(env))
	for name, v := range env {
		if v.IsScalar {
			out[name] = scalarShape()
		} else {
			out[name] = matShape(v.dims())
		}
	}
	return out
}

// ShapeKind is the top level of the abstract shape lattice.
type ShapeKind uint8

const (
	// ShapeTop is the lattice top: scalar or matrix, nothing known.
	ShapeTop ShapeKind = iota
	// ShapeScalar is a scalar, optionally with a known constant value.
	ShapeScalar
	// ShapeMatrix is a matrix; each dimension is known or DimUnknown.
	ShapeMatrix
	// ShapeString is a string literal — only legal as the argument of read().
	ShapeString
)

// DimUnknown marks a matrix dimension the analyzer could not pin down.
const DimUnknown = -1

// AbsShape is one value of the analyzer's abstract domain:
//
//	⊤ (unknown) ⊒ scalar ⊒ scalar(c)        — constants propagate
//	⊤ (unknown) ⊒ matrix(?×?) ⊒ matrix(r×c) — per-dimension precision
//
// Constant scalars power size inference through eye(n), nrow/ncol results,
// index spans, loop trip counts, and branch reachability.
type AbsShape struct {
	Kind       ShapeKind
	Rows, Cols int // meaningful only for ShapeMatrix; DimUnknown if unknown
	constVal   *float64
}

func topAbs() AbsShape    { return AbsShape{Kind: ShapeTop} }
func scalarAbs() AbsShape { return AbsShape{Kind: ShapeScalar} }
func constAbs(v float64) AbsShape {
	return AbsShape{Kind: ShapeScalar, constVal: &v}
}
func matrixAbs(r, c int) AbsShape {
	return AbsShape{Kind: ShapeMatrix, Rows: r, Cols: c}
}
func stringAbs() AbsShape { return AbsShape{Kind: ShapeString} }

// IsScalar reports whether the value is definitely a scalar.
func (a AbsShape) IsScalar() bool { return a.Kind == ShapeScalar }

// IsMatrix reports whether the value is definitely a matrix.
func (a AbsShape) IsMatrix() bool { return a.Kind == ShapeMatrix }

// DimsKnown reports whether the value is a matrix with both dims known.
func (a AbsShape) DimsKnown() bool {
	return a.Kind == ShapeMatrix && a.Rows != DimUnknown && a.Cols != DimUnknown
}

// Const returns the known constant value of a scalar, if any.
func (a AbsShape) Const() (float64, bool) {
	if a.constVal == nil {
		return 0, false
	}
	return *a.constVal, true
}

// String implements fmt.Stringer: "scalar", "scalar(3)", "matrix(4x?)", "?".
func (a AbsShape) String() string {
	switch a.Kind {
	case ShapeScalar:
		if a.constVal != nil {
			return fmt.Sprintf("scalar(%g)", *a.constVal)
		}
		return "scalar"
	case ShapeString:
		return "string"
	case ShapeMatrix:
		dim := func(d int) string {
			if d == DimUnknown {
				return "?"
			}
			return fmt.Sprintf("%d", d)
		}
		return fmt.Sprintf("matrix(%sx%s)", dim(a.Rows), dim(a.Cols))
	default:
		return "?"
	}
}

// join computes the least upper bound of two abstract shapes (used at
// control-flow merge points and loop fixpoints).
func (a AbsShape) join(b AbsShape) AbsShape {
	if a.Kind != b.Kind {
		return topAbs()
	}
	switch a.Kind {
	case ShapeScalar:
		if a.constVal != nil && b.constVal != nil && *a.constVal == *b.constVal {
			return a
		}
		return scalarAbs()
	case ShapeMatrix:
		return matrixAbs(joinDim(a.Rows, b.Rows), joinDim(a.Cols, b.Cols))
	default:
		return topAbs()
	}
}

func joinDim(x, y int) int {
	if x == y {
		return x
	}
	return DimUnknown
}

func (a AbsShape) equal(b AbsShape) bool {
	if a.Kind != b.Kind || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	if (a.constVal == nil) != (b.constVal == nil) {
		return false
	}
	return a.constVal == nil || *a.constVal == *b.constVal
}

// absFromShape lifts the coarse public Shape into the abstract domain.
func absFromShape(s Shape) AbsShape {
	switch {
	case !s.Known:
		return topAbs()
	case s.Scalar:
		return scalarAbs()
	default:
		return matrixAbs(s.Rows, s.Cols)
	}
}

// binding pairs an abstract shape with path-sensitivity: definite means the
// variable is assigned on every path reaching this program point.
type binding struct {
	shape    AbsShape
	definite bool
}

// absEnv is the abstract store: every variable that MAY be defined here.
type absEnv map[string]binding

func (e absEnv) clone() absEnv {
	out := make(absEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// joinEnv merges the stores of two control-flow paths: shapes join, and a
// variable stays definite only if both paths define it.
func joinEnv(a, b absEnv) absEnv {
	out := make(absEnv, len(a))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out[k] = binding{shape: va.shape.join(vb.shape), definite: va.definite && vb.definite}
		} else {
			out[k] = binding{shape: va.shape, definite: false}
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			out[k] = binding{shape: vb.shape, definite: false}
		}
	}
	return out
}

func envEqual(a, b absEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.definite != vb.definite || !va.shape.equal(vb.shape) {
			return false
		}
	}
	return true
}

// shapeHooks customizes inferAbs for the analyzer: report receives
// diagnostics (errors fire only when the evaluator is guaranteed to reject),
// and missing resolves variables absent from the environment. A nil hooks
// pointer (the rewriter's mode) infers silently and treats unknowns as ⊤.
type shapeHooks struct {
	report  func(pos int, sev Severity, code, msg string)
	missing func(name string, pos int) AbsShape
}

func (h *shapeHooks) say(pos int, sev Severity, code, msg string) {
	if h != nil && h.report != nil {
		h.report(pos, sev, code, msg)
	}
}

// inferAbs abstractly interprets an expression over env. It is the single
// shape/type inference engine shared by the analyzer (h non-nil: diagnostics
// on) and the rewrite engine (h nil: silent, used for size-aware rewrites
// such as matrix-chain reordering).
func inferAbs(n Node, env absEnv, h *shapeHooks) AbsShape {
	switch t := n.(type) {
	case *NumLit:
		return constAbs(t.Val)
	case *StrLit:
		return stringAbs()
	case *Var:
		b, ok := env[t.Name]
		if !ok {
			if h != nil && h.missing != nil {
				return h.missing(t.Name, t.Pos)
			}
			return topAbs()
		}
		if !b.definite {
			h.say(t.Pos, SevWarning, CodeMaybeUndefined,
				fmt.Sprintf("variable %q may be undefined: it is assigned on some but not all paths", t.Name))
		}
		return b.shape
	case *Unary:
		s := inferAbs(t.X, env, h)
		if v, ok := s.Const(); ok {
			return constAbs(-v)
		}
		return s
	case *BinOp:
		return inferBinOp(t, env, h)
	case *Call:
		return inferCall(t, env, h)
	case *Index:
		return inferIndex(t, env, h)
	case *Fused:
		// A fused region has exactly the shape of the expression it replaced.
		return inferAbs(t.Body, env, h)
	}
	return topAbs()
}

func inferBinOp(t *BinOp, env absEnv, h *shapeHooks) AbsShape {
	l := inferAbs(t.Left, env, h)
	r := inferAbs(t.Right, env, h)
	if l.Kind == ShapeString || r.Kind == ShapeString {
		h.say(t.Pos, SevError, CodeTypeMismatch,
			"strings are only valid as the argument of read()")
		return topAbs()
	}
	if compareOps[t.Op] {
		if l.IsMatrix() || r.IsMatrix() {
			h.say(t.Pos, SevError, CodeTypeMismatch,
				fmt.Sprintf("comparison %s needs scalar operands", t.Op))
		}
		if lv, ok := l.Const(); ok {
			if rv, ok := r.Const(); ok {
				return constAbs(boolToFloat(compare(t.Op, lv, rv)))
			}
		}
		return scalarAbs()
	}
	if t.Op == "%*%" {
		if l.IsScalar() || r.IsScalar() {
			h.say(t.Pos, SevError, CodeTypeMismatch, "%*% needs matrices on both sides")
			return topAbs()
		}
		rows, cols := DimUnknown, DimUnknown
		if l.IsMatrix() {
			rows = l.Rows
		}
		if r.IsMatrix() {
			cols = r.Cols
		}
		if l.IsMatrix() && r.IsMatrix() && l.Cols != DimUnknown && r.Rows != DimUnknown && l.Cols != r.Rows {
			h.say(t.Pos, SevError, CodeDimMismatch,
				fmt.Sprintf("%%*%% on %dx%d and %dx%d: inner dimensions %d and %d differ",
					l.Rows, l.Cols, r.Rows, r.Cols, l.Cols, r.Rows))
		}
		return matrixAbs(rows, cols)
	}
	// Element-wise arithmetic with scalar broadcast.
	switch {
	case l.IsScalar() && r.IsScalar():
		if lv, ok := l.Const(); ok {
			if rv, ok := r.Const(); ok {
				return constAbs(applyArith(t.Op, lv, rv))
			}
		}
		return scalarAbs()
	case l.IsMatrix() && r.IsMatrix():
		if l.Rows != DimUnknown && r.Rows != DimUnknown && l.Rows != r.Rows ||
			l.Cols != DimUnknown && r.Cols != DimUnknown && l.Cols != r.Cols {
			h.say(t.Pos, SevError, CodeDimMismatch,
				fmt.Sprintf("element-wise %s on %s and %s", t.Op, l, r))
		}
		return matrixAbs(joinKnownDim(l.Rows, r.Rows), joinKnownDim(l.Cols, r.Cols))
	case l.IsMatrix():
		// Right side is scalar or unknown; if it is a matrix it must match
		// the left, so the result shape is the left's either way.
		return l
	case r.IsMatrix():
		return r
	case l.IsScalar():
		// scalar op ⊤: result has the ⊤ side's kind — unknown.
		return topAbs()
	default:
		return topAbs()
	}
}

// joinKnownDim prefers whichever dimension is known (they must agree when
// both are, or a diagnostic has already fired).
func joinKnownDim(x, y int) int {
	if x == DimUnknown {
		return y
	}
	return x
}

func applyArith(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		return a / b
	default: // "^"
		return math.Pow(a, b)
	}
}

func inferCall(t *Call, env absEnv, h *shapeHooks) AbsShape {
	want, known := builtins[t.Fn]
	if !known {
		h.say(t.Pos, SevError, CodeBadArity, fmt.Sprintf("unknown function %q", t.Fn))
		return topAbs()
	}
	if want >= 0 && len(t.Args) != want {
		h.say(t.Pos, SevError, CodeBadArity,
			fmt.Sprintf("%s expects %d argument(s), got %d", t.Fn, want, len(t.Args)))
		return topAbs()
	}
	args := make([]AbsShape, len(t.Args))
	for i, a := range t.Args {
		args[i] = inferAbs(a, env, h)
	}
	// needMatrix mirrors the evaluator: a definitely-scalar argument to a
	// matrix-only builtin always fails at runtime.
	needMatrix := func(i int) {
		if args[i].IsScalar() {
			h.say(t.Args[i].pos(), SevError, CodeTypeMismatch,
				fmt.Sprintf("%s: argument %d must be a matrix", t.Fn, i+1))
		}
	}
	switch t.Fn {
	case "read":
		if args[0].Kind != ShapeString {
			h.say(t.Args[0].pos(), SevError, CodeTypeMismatch,
				"read: argument must be a string literal path")
		}
		// Dimensions come from the file at runtime.
		return matrixAbs(DimUnknown, DimUnknown)
	case "t":
		needMatrix(0)
		if args[0].IsMatrix() {
			return matrixAbs(args[0].Cols, args[0].Rows)
		}
		return matrixAbs(DimUnknown, DimUnknown)
	case "sum", "mean", "min", "max", "__sumsq":
		return scalarAbs()
	case "trace":
		needMatrix(0)
		if args[0].DimsKnown() && args[0].Rows != args[0].Cols {
			h.say(t.Pos, SevError, CodeBadArg,
				fmt.Sprintf("trace of non-square %dx%d", args[0].Rows, args[0].Cols))
		}
		return scalarAbs()
	case "__tracemm":
		needMatrix(0)
		needMatrix(1)
		a, b := args[0], args[1]
		if a.DimsKnown() && b.DimsKnown() && (a.Cols != b.Rows || a.Rows != b.Cols) {
			h.say(t.Pos, SevError, CodeDimMismatch,
				fmt.Sprintf("trace(A %%*%% B) on %dx%d and %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
		}
		return scalarAbs()
	case "nrow", "ncol":
		needMatrix(0)
		if args[0].IsMatrix() {
			d := args[0].Rows
			if t.Fn == "ncol" {
				d = args[0].Cols
			}
			if d != DimUnknown {
				return constAbs(float64(d))
			}
		}
		return scalarAbs()
	case "rowSums":
		needMatrix(0)
		if args[0].IsMatrix() {
			return matrixAbs(args[0].Rows, 1)
		}
		return matrixAbs(DimUnknown, 1)
	case "colSums":
		needMatrix(0)
		if args[0].IsMatrix() {
			return matrixAbs(1, args[0].Cols)
		}
		return matrixAbs(1, DimUnknown)
	case "exp", "log", "sqrt", "abs", "sigmoid":
		switch args[0].Kind {
		case ShapeScalar:
			return scalarAbs()
		case ShapeMatrix:
			return args[0]
		default:
			return topAbs()
		}
	case "eye":
		if args[0].IsMatrix() {
			h.say(t.Args[0].pos(), SevError, CodeTypeMismatch, "eye: argument must be a scalar")
			return matrixAbs(DimUnknown, DimUnknown)
		}
		if v, ok := args[0].Const(); ok {
			k := int(v)
			if k < 1 || float64(k) != v {
				h.say(t.Args[0].pos(), SevError, CodeBadArg,
					fmt.Sprintf("eye: need a positive integer, got %g", v))
				return matrixAbs(DimUnknown, DimUnknown)
			}
			return matrixAbs(k, k)
		}
		return matrixAbs(DimUnknown, DimUnknown)
	case "solve":
		needMatrix(0)
		needMatrix(1)
		a, b := args[0], args[1]
		if a.DimsKnown() && a.Rows != a.Cols {
			h.say(t.Args[0].pos(), SevError, CodeBadArg,
				fmt.Sprintf("solve: coefficient matrix is %dx%d, want square", a.Rows, a.Cols))
		}
		if b.IsMatrix() && b.Cols != DimUnknown && b.Cols != 1 {
			h.say(t.Args[1].pos(), SevError, CodeDimMismatch,
				fmt.Sprintf("solve: rhs has %d columns, want 1", b.Cols))
		}
		if a.IsMatrix() && b.IsMatrix() && a.Rows != DimUnknown && b.Rows != DimUnknown && a.Rows != b.Rows {
			h.say(t.Args[1].pos(), SevError, CodeDimMismatch,
				fmt.Sprintf("solve: coefficient matrix has %d rows but rhs has %d", a.Rows, b.Rows))
		}
		if a.IsMatrix() {
			return matrixAbs(a.Cols, 1)
		}
		return matrixAbs(DimUnknown, 1)
	case "cbind", "rbind":
		needMatrix(0)
		needMatrix(1)
		a, b := args[0], args[1]
		if !a.IsMatrix() || !b.IsMatrix() {
			return matrixAbs(DimUnknown, DimUnknown)
		}
		if t.Fn == "cbind" {
			if a.Rows != DimUnknown && b.Rows != DimUnknown && a.Rows != b.Rows {
				h.say(t.Pos, SevError, CodeDimMismatch,
					fmt.Sprintf("cbind: row counts %d and %d differ", a.Rows, b.Rows))
			}
			return matrixAbs(joinKnownDim(a.Rows, b.Rows), addDims(a.Cols, b.Cols))
		}
		if a.Cols != DimUnknown && b.Cols != DimUnknown && a.Cols != b.Cols {
			h.say(t.Pos, SevError, CodeDimMismatch,
				fmt.Sprintf("rbind: column counts %d and %d differ", a.Cols, b.Cols))
		}
		return matrixAbs(addDims(a.Rows, b.Rows), joinKnownDim(a.Cols, b.Cols))
	}
	return topAbs()
}

func addDims(x, y int) int {
	if x == DimUnknown || y == DimUnknown {
		return DimUnknown
	}
	return x + y
}

func inferIndex(t *Index, env absEnv, h *shapeHooks) AbsShape {
	base := inferAbs(t.X, env, h)
	if base.IsScalar() {
		h.say(t.Pos, SevError, CodeTypeMismatch, "cannot index a scalar")
		return topAbs()
	}
	baseRows, baseCols := DimUnknown, DimUnknown
	if base.IsMatrix() {
		baseRows, baseCols = base.Rows, base.Cols
	}
	rowSpan := inferSpan(t.Row, baseRows, "row", env, h)
	colSpan := inferSpan(t.Col, baseCols, "column", env, h)
	switch {
	case rowSpan == 1 && colSpan == 1:
		return scalarAbs()
	case rowSpan > 1 || colSpan > 1:
		r, c := DimUnknown, DimUnknown
		if rowSpan > 0 {
			r = rowSpan
		}
		if colSpan > 0 {
			c = colSpan
		}
		return matrixAbs(r, c)
	default:
		// Spans unknown: a 1x1 selection would yield a scalar, so the result
		// kind itself is unknown.
		return topAbs()
	}
}

// inferSpan computes the static width of one index axis (DimUnknown if not
// derivable) and reports indices that are certain to fail at runtime.
func inferSpan(spec *IndexSpec, axisSize int, axis string, env absEnv, h *shapeHooks) int {
	if spec.All {
		return axisSize
	}
	checkBound := func(n Node) (int, bool) {
		s := inferAbs(n, env, h)
		if s.IsMatrix() {
			h.say(n.pos(), SevError, CodeTypeMismatch,
				fmt.Sprintf("%s index must be a scalar", axis))
			return 0, false
		}
		v, ok := s.Const()
		if !ok {
			return 0, false
		}
		if float64(int(v)) != v {
			h.say(n.pos(), SevError, CodeBadArg,
				fmt.Sprintf("%s index %g is not an integer", axis, v))
			return 0, false
		}
		return int(v), true
	}
	lo, loOK := checkBound(spec.Lo)
	hi, hiOK := lo, loOK
	if spec.Hi != nil {
		hi, hiOK = checkBound(spec.Hi)
	}
	if !loOK || !hiOK {
		return DimUnknown
	}
	if lo < 1 || hi < lo || (axisSize != DimUnknown && hi > axisSize) {
		h.say(spec.Lo.pos(), SevError, CodeBadArg,
			fmt.Sprintf("%s range %d:%d out of bounds for size %s", axis, lo, hi, sizeString(axisSize)))
		return DimUnknown
	}
	return hi - lo + 1
}

func sizeString(d int) string {
	if d == DimUnknown {
		return "?"
	}
	return fmt.Sprintf("%d", d)
}
