package xq

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports an XQuery⁻ syntax error.
type ParseError struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("xq: parse error at offset %d: %s", e.Pos, e.Msg)
}

// Parse parses an XQuery⁻ query. Text outside braces is fixed output
// (leading/trailing whitespace of each literal segment is trimmed, and
// whitespace-only segments drop, mirroring XQuery boundary-whitespace
// stripping); braces enclose for-loops, conditionals, and variable/path
// output. Absolute paths such as /site/people/person are sugar for
// $ROOT/site/people/person (Appendix A: "$ROOT may be omitted").
func Parse(input string) (Expr, error) {
	p := &qparser{in: input}
	e, err := p.seq(false)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.in) {
		return nil, p.errf("unexpected '}'")
	}
	return e, nil
}

// MustParse is Parse for known-good queries.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// ParseCond parses a condition in isolation (used by tests and tools).
func ParseCond(input string) (Cond, error) {
	p := &qparser{in: input}
	c, err := p.cond()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, p.errf("trailing input in condition")
	}
	return c, nil
}

type qparser struct {
	in  string
	pos int
}

func (p *qparser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *qparser) peek() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}

func (p *qparser) skipSpace() {
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// word reads the identifier at the cursor without consuming it.
func (p *qparser) word() string {
	i := p.pos
	for i < len(p.in) && isIdentChar(p.in[i]) {
		i++
	}
	return p.in[p.pos:i]
}

func (p *qparser) eatWord(w string) bool {
	if p.word() == w {
		p.pos += len(w)
		return true
	}
	return false
}

func isIdentChar(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
		b >= '0' && b <= '9' || b == '_' || b == '-' || b == '.'
}

// seq parses a sequence of literal text and brace expressions. If inBrace
// is true the sequence ends at an unconsumed '}'.
func (p *qparser) seq(inBrace bool) (Expr, error) {
	var items []Expr
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case '{':
			p.pos++
			e, err := p.braceExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
		case '}':
			return joinStrs(items), nil
		default:
			start := p.pos
			for p.pos < len(p.in) && p.in[p.pos] != '{' && p.in[p.pos] != '}' {
				p.pos++
			}
			lit := strings.TrimSpace(p.in[start:p.pos])
			if lit != "" {
				items = append(items, &Str{S: lit})
			}
		}
	}
	if inBrace {
		return nil, p.errf("unexpected end of query: missing '}'")
	}
	return joinStrs(items), nil
}

// joinStrs builds the flat sequence of items with adjacent strings
// concatenated: `a { b }` outputs "ab", which is also what the printed
// form `ab` reads back as.
func joinStrs(items []Expr) Expr {
	var out []Expr
	for _, it := range Items(NewSeq(items...)) {
		if s, ok := it.(*Str); ok && len(out) > 0 {
			if prev, ok := out[len(out)-1].(*Str); ok {
				out[len(out)-1] = &Str{S: prev.S + s.S}
				continue
			}
		}
		out = append(out, it)
	}
	return NewSeq(out...)
}

// braceExpr parses the contents of { ... } including the closing brace.
func (p *qparser) braceExpr() (Expr, error) {
	p.skipSpace()
	switch {
	case p.word() == "for":
		return p.forExpr()
	case p.word() == "if":
		return p.ifExpr()
	case p.peek() == '$' || p.peek() == '/':
		v, path, err := p.varPath()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != '}' {
			return nil, p.errf("expected '}' after %s", v)
		}
		p.pos++
		if len(path) == 0 {
			return &VarOut{Var: v}, nil
		}
		return &PathOut{Var: v, Path: path}, nil
	default:
		// A brace group: { α } groups a sequence (the paper writes e.g.
		// return { <result> {$article/author} </result> } in Example 4.6).
		e, err := p.seq(true)
		if err != nil {
			return nil, err
		}
		if p.peek() != '}' {
			return nil, p.errf("missing '}' after brace group")
		}
		p.pos++
		return e, nil
	}
}

func (p *qparser) forExpr() (Expr, error) {
	if !p.eatWord("for") {
		return nil, p.errf("expected 'for'")
	}
	p.skipSpace()
	v, err := p.variable()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eatWord("in") {
		return nil, p.errf("expected 'in' in for-loop")
	}
	p.skipSpace()
	src, path, err := p.varPath()
	if err != nil {
		return nil, err
	}
	if len(path) == 0 {
		return nil, p.errf("for-loop requires a path ($y/π)")
	}
	p.skipSpace()
	var where Cond
	if p.eatWord("where") {
		where, err = p.cond()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
	}
	if !p.eatWord("return") {
		return nil, p.errf("expected 'return' in for-loop")
	}
	body, err := p.seq(true)
	if err != nil {
		return nil, err
	}
	if p.peek() != '}' {
		return nil, p.errf("missing '}' after for-loop body")
	}
	p.pos++
	return &For{Var: v, Src: src, Path: path, Where: where, Body: body}, nil
}

func (p *qparser) ifExpr() (Expr, error) {
	if !p.eatWord("if") {
		return nil, p.errf("expected 'if'")
	}
	cond, err := p.cond()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eatWord("then") {
		return nil, p.errf("expected 'then' in conditional")
	}
	body, err := p.seq(true)
	if err != nil {
		return nil, err
	}
	if p.peek() != '}' {
		return nil, p.errf("missing '}' after conditional body")
	}
	p.pos++
	return &If{Cond: cond, Then: body}, nil
}

// variable parses $name.
func (p *qparser) variable() (string, error) {
	if p.peek() != '$' {
		return "", p.errf("expected variable")
	}
	start := p.pos
	p.pos++
	w := p.word()
	if w == "" {
		return "", p.errf("expected variable name after '$'")
	}
	p.pos += len(w)
	return p.in[start:p.pos], nil
}

// varPath parses $x, $x/a/b, or an absolute /a/b (implying $ROOT).
func (p *qparser) varPath() (string, Path, error) {
	var v string
	if p.peek() == '/' {
		v = RootVar
	} else {
		var err error
		v, err = p.variable()
		if err != nil {
			return "", nil, err
		}
	}
	var path Path
	for p.peek() == '/' {
		p.pos++
		w := p.word()
		if w == "" {
			return "", nil, p.errf("expected element name in path")
		}
		p.pos += len(w)
		path = append(path, w)
	}
	return v, path, nil
}

// --- Condition grammar -------------------------------------------------

func (p *qparser) cond() (Cond, error) {
	l, err := p.condAnd()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.eatWord("or") {
			return l, nil
		}
		r, err := p.condAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
}

func (p *qparser) condAnd() (Cond, error) {
	l, err := p.condUnary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.eatWord("and") {
			return l, nil
		}
		r, err := p.condUnary()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
}

func (p *qparser) condUnary() (Cond, error) {
	p.skipSpace()
	switch {
	case p.eatWord("not"):
		x, err := p.condUnary()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	case p.eatWord("true"):
		return True{}, nil
	case p.eatWord("exists"):
		p.skipSpace()
		v, path, err := p.varPath()
		if err != nil {
			return nil, err
		}
		if len(path) == 0 {
			return nil, p.errf("exists requires a path")
		}
		return &Exists{Var: v, Path: path}, nil
	case p.eatWord("empty"):
		p.skipSpace()
		if p.peek() != '(' {
			return nil, p.errf("expected '(' after empty")
		}
		p.pos++
		p.skipSpace()
		v, path, err := p.varPath()
		if err != nil {
			return nil, err
		}
		if len(path) == 0 {
			return nil, p.errf("empty requires a path")
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errf("expected ')' after empty(...)")
		}
		p.pos++
		return &Exists{Var: v, Path: path, Neg: true}, nil
	case p.peek() == '(':
		p.pos++
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errf("expected ')' in condition")
		}
		p.pos++
		return c, nil
	default:
		return p.comparison()
	}
}

func (p *qparser) comparison() (Cond, error) {
	l, err := p.operand()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	op, err := p.relOp()
	if err != nil {
		return nil, err
	}
	r, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &Cmp{L: l, R: r, Op: op}, nil
}

func (p *qparser) relOp() (RelOp, error) {
	switch {
	case strings.HasPrefix(p.in[p.pos:], "!="):
		p.pos += 2
		return OpNe, nil
	case strings.HasPrefix(p.in[p.pos:], "<="):
		p.pos += 2
		return OpLe, nil
	case strings.HasPrefix(p.in[p.pos:], ">="):
		p.pos += 2
		return OpGe, nil
	case p.peek() == '=':
		p.pos++
		return OpEq, nil
	case p.peek() == '<':
		p.pos++
		return OpLt, nil
	case p.peek() == '>':
		p.pos++
		return OpGt, nil
	default:
		return 0, p.errf("expected comparison operator")
	}
}

// operand parses a string literal, a number (optionally followed by
// '* $y/π', the Appendix A arithmetic form), a parenthesized scaled path
// '(c * $y/π)', or a path operand.
func (p *qparser) operand() (Operand, error) {
	p.skipSpace()
	switch {
	case p.peek() == '\'' || p.peek() == '"':
		quote := p.peek()
		p.pos++
		start := p.pos
		for p.pos < len(p.in) && p.in[p.pos] != quote {
			p.pos++
		}
		if p.pos == len(p.in) {
			return Operand{}, p.errf("unterminated string literal")
		}
		s := p.in[start:p.pos]
		p.pos++
		return ConstOp(s), nil
	case p.peek() == '(':
		p.pos++
		op, err := p.operand()
		if err != nil {
			return Operand{}, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return Operand{}, p.errf("expected ')' around operand")
		}
		p.pos++
		return op, nil
	case p.peek() == '$' || p.peek() == '/':
		v, path, err := p.varPath()
		if err != nil {
			return Operand{}, err
		}
		if len(path) == 0 {
			return Operand{}, p.errf("condition operand requires a path ($x/π)")
		}
		return PathOp(v, path), nil
	default:
		start := p.pos
		for p.pos < len(p.in) && (p.in[p.pos] >= '0' && p.in[p.pos] <= '9' || p.in[p.pos] == '.' || p.in[p.pos] == '-') {
			p.pos++
		}
		if p.pos == start {
			return Operand{}, p.errf("expected operand")
		}
		numText := p.in[start:p.pos]
		num, err := strconv.ParseFloat(numText, 64)
		if err != nil {
			return Operand{}, p.errf("bad number %q", numText)
		}
		p.skipSpace()
		if p.peek() == '*' {
			p.pos++
			p.skipSpace()
			v, path, err := p.varPath()
			if err != nil {
				return Operand{}, err
			}
			if len(path) == 0 {
				return Operand{}, p.errf("scaled operand requires a path")
			}
			op := PathOp(v, path)
			op.Scale = num
			return op, nil
		}
		return ConstOp(numText), nil
	}
}
