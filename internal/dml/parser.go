package dml

import "fmt"

// Parse parses a DML program: newline-separated assignments and expressions.
// The returned Program retains the source text so analyzer and evaluator
// diagnostics can report line:col positions.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	prog := &Program{Src: src}
	for {
		p.skipNewlines()
		if p.peek().kind == tokEOF {
			break
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
		switch p.peek().kind {
		case tokNewline:
			p.next()
		case tokEOF:
		default:
			return nil, p.errAt(p.peek().pos, "unexpected %s after statement", p.peek())
		}
	}
	if len(prog.Stmts) == 0 {
		return nil, fmt.Errorf("dml: empty program")
	}
	return prog, nil
}

type parser struct {
	toks []token
	src  string
	at   int
}

// errAt formats a parse error anchored at a byte offset as line:col.
func (p *parser) errAt(pos int, format string, args ...any) error {
	return fmt.Errorf("dml: %s: %s", posString(p.src, pos), fmt.Sprintf(format, args...))
}

func (p *parser) peek() token  { return p.toks[p.at] }
func (p *parser) peek2() token { return p.toks[min(p.at+1, len(p.toks)-1)] }
func (p *parser) next() token  { t := p.toks[p.at]; p.at++; return t }

func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.next()
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	start := p.peek().pos
	if p.peek().kind == tokIdent {
		switch p.peek().text {
		case "for":
			return p.parseFor()
		case "if":
			return p.parseIf()
		}
	}
	if p.peek().kind == tokIdent && p.peek2().kind == tokOp && p.peek2().text == "=" {
		name := p.next().text
		p.next() // '='
		expr, err := p.parseExpr()
		if err != nil {
			return Stmt{}, err
		}
		return Stmt{Name: name, Expr: expr, Pos: start}, nil
	}
	expr, err := p.parseExpr()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{Expr: expr, Pos: start}, nil
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return t, p.errAt(t.pos, "expected %s, got %s", what, t)
	}
	return p.next(), nil
}

// parseFor parses `for (v in from:to) { body }`.
func (p *parser) parseFor() (Stmt, error) {
	start := p.peek().pos
	p.next() // "for"
	if _, err := p.expect(tokLParen, "("); err != nil {
		return Stmt{}, err
	}
	v, err := p.expect(tokIdent, "loop variable")
	if err != nil {
		return Stmt{}, err
	}
	if reserved[v.text] {
		return Stmt{}, p.errAt(v.pos, "%q is a reserved word", v.text)
	}
	kw := p.peek()
	if kw.kind != tokIdent || kw.text != "in" {
		return Stmt{}, p.errAt(kw.pos, "expected \"in\", got %s", kw)
	}
	p.next()
	from, err := p.parseExpr()
	if err != nil {
		return Stmt{}, err
	}
	if _, err := p.expect(tokColon, ":"); err != nil {
		return Stmt{}, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return Stmt{}, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return Stmt{}, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{For: &ForStmt{Var: v.text, From: from, To: to, Body: body}, Pos: start}, nil
}

// parseIf parses `if (cond) { then } [else { else }]`.
func (p *parser) parseIf() (Stmt, error) {
	start := p.peek().pos
	p.next() // "if"
	if _, err := p.expect(tokLParen, "("); err != nil {
		return Stmt{}, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return Stmt{}, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return Stmt{}, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return Stmt{}, err
	}
	st := Stmt{If: &IfStmt{Cond: cond, Then: then}, Pos: start}
	if p.peek().kind == tokIdent && p.peek().text == "else" {
		p.next()
		els, err := p.parseBlock()
		if err != nil {
			return Stmt{}, err
		}
		st.If.Else = els
	}
	return st, nil
}

// parseBlock parses `{ stmt* }` with newline/semicolon separators.
func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	var body []Stmt
	for {
		p.skipNewlines()
		if p.peek().kind == tokRBrace {
			p.next()
			return body, nil
		}
		if p.peek().kind == tokEOF {
			return nil, p.errAt(p.peek().pos, "unterminated block")
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, stmt)
		switch p.peek().kind {
		case tokNewline:
			p.next()
		case tokRBrace:
		default:
			return nil, p.errAt(p.peek().pos, "unexpected %s in block", p.peek())
		}
	}
}

// Precedence (loosest to tightest, R-like): comparisons, then additive,
// multiplicative, %*%, unary minus, power, primary.
func (p *parser) parseExpr() (Node, error) { return p.parseCompare() }

// reserved are the words that open a control-flow statement; they cannot
// name a variable.
var reserved = map[string]bool{"for": true, "if": true}

var compareOps = map[string]bool{"<": true, ">": true, "<=": true, ">=": true, "==": true, "!=": true}

func (p *parser) parseCompare() (Node, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokOp && compareOps[p.peek().text] {
		op := p.next()
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: op.text, Left: left, Right: right, Pos: op.pos}, nil
	}
	return left, nil
}

func (p *parser) parseAdd() (Node, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.next()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op.text, Left: left, Right: right, Pos: op.pos}
	}
	return left, nil
}

func (p *parser) parseMul() (Node, error) {
	left, err := p.parseMatMul()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "*" || p.peek().text == "/") {
		op := p.next()
		right, err := p.parseMatMul()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op.text, Left: left, Right: right, Pos: op.pos}
	}
	return left, nil
}

func (p *parser) parseMatMul() (Node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokMatMul {
		op := p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: "%*%", Left: left, Right: right, Pos: op.pos}
	}
	return left, nil
}

func (p *parser) parseUnary() (Node, error) {
	if p.peek().kind == tokOp && p.peek().text == "-" {
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{X: x, Pos: op.pos}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Node, error) {
	base, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokOp && p.peek().text == "^" {
		op := p.next()
		// Right-associative; exponent may carry unary minus.
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: "^", Left: base, Right: exp, Pos: op.pos}, nil
	}
	return base, nil
}

// parsePostfix parses a primary followed by any number of right-indexing
// suffixes: X[rows, cols].
func (p *parser) parsePostfix() (Node, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokLBracket {
		open := p.next()
		row, err := p.parseIndexSpec(tokComma)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma, ","); err != nil {
			return nil, err
		}
		col, err := p.parseIndexSpec(tokRBracket)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return nil, err
		}
		base = &Index{X: base, Row: row, Col: col, Pos: open.pos}
	}
	return base, nil
}

// parseIndexSpec parses one axis of an index expression, stopping before the
// given terminator: empty (all), expr, or expr:expr.
func (p *parser) parseIndexSpec(terminator tokKind) (*IndexSpec, error) {
	if p.peek().kind == terminator {
		return &IndexSpec{All: true}, nil
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokColon {
		return &IndexSpec{Lo: lo}, nil
	}
	p.next()
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &IndexSpec{Lo: lo, Hi: hi}, nil
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch t.kind {
	case tokNum:
		p.next()
		return &NumLit{Val: t.num, Pos: t.pos}, nil
	case tokStr:
		p.next()
		return &StrLit{Val: t.text, Pos: t.pos}, nil
	case tokIdent:
		p.next()
		if reserved[t.text] {
			// A statement starting with one parses as control flow, so a
			// variable by that name could never be printed back.
			return nil, p.errAt(t.pos, "%q is a reserved word", t.text)
		}
		if p.peek().kind != tokLParen {
			return &Var{Name: t.text, Pos: t.pos}, nil
		}
		// Function call.
		arity, ok := builtins[t.text]
		if !ok {
			return nil, p.errAt(t.pos, "unknown function %q", t.text)
		}
		p.next() // '('
		var args []Node
		if p.peek().kind != tokRParen {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if p.peek().kind == tokComma {
					p.next()
					continue
				}
				break
			}
		}
		if p.peek().kind != tokRParen {
			return nil, p.errAt(p.peek().pos, "expected ) in call to %s, got %s", t.text, p.peek())
		}
		p.next()
		if arity >= 0 && len(args) != arity {
			return nil, p.errAt(t.pos, "%s expects %d argument(s), got %d", t.text, arity, len(args))
		}
		return &Call{Fn: t.text, Args: args, Pos: t.pos}, nil
	case tokLParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, p.errAt(p.peek().pos, "expected ), got %s", p.peek())
		}
		p.next()
		return inner, nil
	default:
		return nil, p.errAt(t.pos, "unexpected %s", t)
	}
}
