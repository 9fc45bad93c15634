package dml

// Operator-span name tables for the -stats instrumentation. Names are
// precomputed so opSpanName never concatenates strings on the eval hot
// path: with -stats enabled, every executed operator opens a span, and a
// counted loop can execute millions of them.

// binOpSpanNames maps every binary operator the parser accepts to its span
// name. Comparison operators are included: they execute in loop guards.
var binOpSpanNames = map[string]string{
	"+": "dml.op.+", "-": "dml.op.-", "*": "dml.op.*", "/": "dml.op./",
	"^": "dml.op.^", "%*%": "dml.op.%*%",
	"<": "dml.op.cmp", ">": "dml.op.cmp", "<=": "dml.op.cmp",
	">=": "dml.op.cmp", "==": "dml.op.cmp", "!=": "dml.op.cmp",
}

// callSpanNames maps every builtin (including the rewriter's fused
// internal forms) to its span name. An unknown function name times under
// the generic bucket rather than allocating a fresh string — it is about
// to fail evaluation anyway.
var callSpanNames = map[string]string{
	"t": "dml.op.t", "sum": "dml.op.sum", "mean": "dml.op.mean",
	"min": "dml.op.min", "max": "dml.op.max", "trace": "dml.op.trace",
	"nrow": "dml.op.nrow", "ncol": "dml.op.ncol",
	"rowSums": "dml.op.rowSums", "colSums": "dml.op.colSums",
	"exp": "dml.op.exp", "log": "dml.op.log", "sqrt": "dml.op.sqrt",
	"abs": "dml.op.abs", "sigmoid": "dml.op.sigmoid", "eye": "dml.op.eye",
	"cbind": "dml.op.cbind", "rbind": "dml.op.rbind", "solve": "dml.op.solve",
	"__sumsq": "dml.op.__sumsq", "__tracemm": "dml.op.__tracemm",
}

// Fused-template span names: the fusion pass emits Fused nodes rather than
// calls, so they get dedicated names instead of callSpanNames entries. They
// appear in the -stats heavy-hitter table alongside the builtin operators.
const (
	fusedCellSpanName   = "dml.op.fused.cell"
	fusedRowAggSpanName = "dml.op.fused.rowagg"
	fusedRowSpanName    = "dml.op.fused.row"
)

// opSpanName returns the span name for a node, or "" for nodes too cheap
// to time (literals, variable reads).
func opSpanName(n Node) string {
	switch t := n.(type) {
	case *BinOp:
		if name, ok := binOpSpanNames[t.Op]; ok {
			return name
		}
		return "dml.op.binop"
	case *Call:
		if name, ok := callSpanNames[t.Fn]; ok {
			return name
		}
		return "dml.op.call"
	case *Index:
		return "dml.op.index"
	case *Unary:
		return "dml.op.neg"
	case *Fused:
		switch t.Kind {
		case FuseCell:
			return fusedCellSpanName
		case FuseRow:
			return fusedRowSpanName
		}
		return fusedRowAggSpanName
	}
	return ""
}
