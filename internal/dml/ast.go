// Package dml implements a small declarative ML language in the style of
// SystemML's DML, which the paper surveys as the "ML systems from the ground
// up" approach: an R-like matrix expression language compiled through an
// algebraic rewrite engine (matrix-chain reordering, aggregate fusion such
// as sum(X^2), trace(A %*% B) contraction, constant folding, common-
// subexpression elimination) and executed on the la substrate.
//
// A program is a sequence of assignments and expressions:
//
//	G = t(X) %*% X + lambda * eye(ncol(X))
//	w = solve(G, t(X) %*% y)
//	mse = sum((X %*% w - y)^2) / nrow(X)
//
// Supported: + - * / ^ (element-wise; scalars broadcast), %*% (matrix
// product), t(), unary minus, scalar comparisons (< > <= >= == !=), counted
// loops `for (i in 1:n) { … }`, conditionals `if (cond) { … } else { … }`,
// R-style right indexing `X[i, j]` / `X[a:b, ]` (1-based, inclusive), and
// the builtins sum, mean, min, max, trace, nrow, ncol, rowSums, colSums,
// exp, log, sqrt, abs, sigmoid, eye, solve, cbind, rbind.
package dml

import (
	"fmt"
	"strconv"
	"strings"

	"dmml/internal/storage"
)

// Node is an expression AST node.
type Node interface {
	fmt.Stringer
	// pos returns the source position for error messages.
	pos() int
}

// NumLit is a numeric literal.
type NumLit struct {
	Val float64
	Pos int
}

// StrLit is a double-quoted string literal. Strings exist only as arguments
// to read(); anywhere else the analyzer rejects them.
type StrLit struct {
	Val string
	Pos int
}

// Var is an identifier reference.
type Var struct {
	Name string
	Pos  int
}

// BinOp is a binary operation. Op is one of "+", "-", "*", "/", "^", "%*%".
type BinOp struct {
	Op          string
	Left, Right Node
	Pos         int
}

// Unary is unary negation.
type Unary struct {
	X   Node
	Pos int
}

// Call is a builtin function application.
type Call struct {
	Fn   string
	Args []Node
	Pos  int
}

func (n *NumLit) pos() int { return n.Pos }
func (n *StrLit) pos() int { return n.Pos }
func (n *Var) pos() int    { return n.Pos }
func (n *BinOp) pos() int  { return n.Pos }
func (n *Unary) pos() int  { return n.Pos }
func (n *Call) pos() int   { return n.Pos }

// String implements fmt.Stringer.
func (n *NumLit) String() string { return strconv.FormatFloat(n.Val, 'g', -1, 64) }

// String renders the literal in the lexer's syntax: a backslash escapes only
// a double quote, a backslash, a newline or a tab, and every other byte
// stands for itself.
func (n *StrLit) String() string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(n.Val); i++ {
		switch c := n.Val[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// String implements fmt.Stringer.
func (n *Var) String() string { return n.Name }

// String implements fmt.Stringer.
func (n *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", n.Left, n.Op, n.Right)
}

// String implements fmt.Stringer.
func (n *Unary) String() string { return fmt.Sprintf("(-%s)", n.X) }

// String implements fmt.Stringer.
func (n *Call) String() string {
	parts := make([]string, len(n.Args))
	for i, a := range n.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", n.Fn, strings.Join(parts, ", "))
}

// Stmt is one program statement: an assignment (Name non-empty), a bare
// expression, or a control-flow construct (exactly one of For/If non-nil).
type Stmt struct {
	Name string // "" for bare expressions
	Expr Node
	For  *ForStmt
	If   *IfStmt
	Pos  int // byte offset of the statement's first token
}

// ForStmt is a counted loop: `for (v in from:to) { body }`. Bounds evaluate
// to scalars; the loop variable is visible to the body (and after the loop,
// matching R semantics).
type ForStmt struct {
	Var      string
	From, To Node
	Body     []Stmt
}

// IfStmt branches on a scalar condition: non-zero takes Then, zero Else.
type IfStmt struct {
	Cond Node
	Then []Stmt
	Else []Stmt // may be nil
}

// String implements fmt.Stringer.
func (s Stmt) String() string {
	switch {
	case s.For != nil:
		return fmt.Sprintf("for (%s in %s:%s) {\n%s\n}", s.For.Var, s.For.From, s.For.To, indentStmts(s.For.Body))
	case s.If != nil:
		out := fmt.Sprintf("if (%s) {\n%s\n}", s.If.Cond, indentStmts(s.If.Then))
		if len(s.If.Else) > 0 {
			out += fmt.Sprintf(" else {\n%s\n}", indentStmts(s.If.Else))
		}
		return out
	case s.Name == "":
		return s.Expr.String()
	default:
		return fmt.Sprintf("%s = %s", s.Name, s.Expr)
	}
}

func indentStmts(stmts []Stmt) string {
	lines := make([]string, 0, len(stmts))
	for _, st := range stmts {
		for _, line := range strings.Split(st.String(), "\n") {
			lines = append(lines, "  "+line)
		}
	}
	return strings.Join(lines, "\n")
}

// Program is a parsed (and possibly rewritten) statement list. Src holds the
// original source text when the program came from Parse, so analyzer and
// evaluator diagnostics can report line:col positions.
type Program struct {
	Stmts []Stmt
	Src   string
	// Pool, when non-nil, backs read(): a file larger than the pool's budget
	// loads as an out-of-core matrix paged through it, every other file as
	// a dense matrix. The caller owns the pool; those matrices keep their
	// pages in it until it is discarded.
	Pool *storage.BufferPool
}

// String renders the program source-like, one statement per line.
func (p *Program) String() string {
	lines := make([]string, len(p.Stmts))
	for i, s := range p.Stmts {
		lines[i] = s.String()
	}
	return strings.Join(lines, "\n")
}

// builtins maps function names to their arity (-1 = unchecked).
var builtins = map[string]int{
	"t": 1, "sum": 1, "mean": 1, "min": 1, "max": 1, "trace": 1,
	"nrow": 1, "ncol": 1, "rowSums": 1, "colSums": 1,
	"exp": 1, "log": 1, "sqrt": 1, "abs": 1, "sigmoid": 1,
	"eye": 1, "solve": 2, "cbind": 2, "rbind": 2, "read": 1,
	// Internal fused operators produced by the rewriter; they are not
	// parseable from source but render in String output.
	"__sumsq": 1, "__tracemm": 2,
}

// IndexSpec selects along one axis of a right-indexing expression: the whole
// axis (All), a single 1-based position (Lo only), or an inclusive 1-based
// range Lo:Hi.
type IndexSpec struct {
	All    bool
	Lo, Hi Node // Hi nil = single position
}

// String renders the spec as it appears between brackets.
func (s *IndexSpec) String() string {
	if s.All {
		return ""
	}
	if s.Hi == nil {
		return s.Lo.String()
	}
	return fmt.Sprintf("%s:%s", s.Lo, s.Hi)
}

// Index is R-style right indexing: X[rows, cols]. Selecting a single row
// AND a single column yields a scalar; otherwise a sub-matrix.
type Index struct {
	X        Node
	Row, Col *IndexSpec
	Pos      int
}

func (n *Index) pos() int { return n.Pos }

// String implements fmt.Stringer.
func (n *Index) String() string {
	return fmt.Sprintf("%s[%s, %s]", n.X, n.Row, n.Col)
}
