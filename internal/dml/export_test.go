package dml

import "strings"

// Test introspection: what a compiled program contains, and an analysis
// rendered as text for failure messages.

// forEachFused visits every Fused node in the program, including regions
// nested in other regions' inputs and inside control-flow bodies.
func (p *Program) forEachFused(fn func(*Fused)) {
	var walkNode func(Node)
	walkNode = func(nd Node) {
		switch t := nd.(type) {
		case *Fused:
			fn(t)
			for _, in := range t.Inputs {
				walkNode(in)
			}
			if t.Vec != nil {
				walkNode(t.Vec)
			}
			if r := t.Row; r != nil {
				walkNode(r.U)
				for _, st := range []rowStage{r.F, r.G} {
					for _, in := range st.Inputs {
						walkNode(in)
					}
				}
			}
		case *Unary:
			walkNode(t.X)
		case *BinOp:
			walkNode(t.Left)
			walkNode(t.Right)
		case *Call:
			for _, a := range t.Args {
				walkNode(a)
			}
		case *Index:
			walkNode(t.X)
			for _, spec := range []*IndexSpec{t.Row, t.Col} {
				if !spec.All {
					walkNode(spec.Lo)
					if spec.Hi != nil {
						walkNode(spec.Hi)
					}
				}
			}
		}
	}
	var walkStmts func([]Stmt)
	walkStmts = func(stmts []Stmt) {
		for _, s := range stmts {
			switch {
			case s.For != nil:
				walkNode(s.For.From)
				walkNode(s.For.To)
				walkStmts(s.For.Body)
			case s.If != nil:
				walkNode(s.If.Cond)
				walkStmts(s.If.Then)
				walkStmts(s.If.Else)
			default:
				walkNode(s.Expr)
			}
		}
	}
	walkStmts(p.Stmts)
}

// FusedRegionCount reports how many fused regions the program contains
// (Fused nodes render like their unfused bodies, so String cannot reveal
// them).
func (p *Program) FusedRegionCount() int {
	n := 0
	p.forEachFused(func(*Fused) { n++ })
	return n
}

// HasLICMTemp reports whether the program contains hoisted temporaries.
func (p *Program) HasLICMTemp() bool {
	return strings.Contains(p.String(), licmTempPrefix)
}

// Format renders every diagnostic, one per line, with line:col positions.
func (a *Analysis) Format() string {
	lines := make([]string, len(a.Diags))
	for i, d := range a.Diags {
		lines[i] = d.Format(a.src)
	}
	return strings.Join(lines, "\n")
}
