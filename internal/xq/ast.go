// Package xq implements the XQuery⁻ fragment of the FluX paper
// (Section 3.1): the AST, a parser, a canonical printer, the normal-form
// rewriting of Figure 1, and the Section 7 cardinality-based loop-merging
// optimizations.
//
// Following the paper, a query is a sequence of fixed output strings and
// brace-enclosed expressions; `<result>` is an output string, not element
// construction (Proposition 3.2 makes the two semantics agree for queries
// that parse in both languages).
package xq

import (
	"sort"
	"strings"
)

// RootVar is the name of the special variable bound to the document node.
const RootVar = "$ROOT"

// Path is a fixed path a1/…/an over element names (no wildcards, no
// descendant steps — paper Section 3).
type Path []string

// String renders the path with '/' separators.
func (p Path) String() string { return strings.Join(p, "/") }

// Expr is an XQuery⁻ expression. The empty query ε is represented by a
// Seq with no items (or a nil Expr where documented).
type Expr interface {
	isExpr()
}

// Seq is a sequence of expressions (α β in the paper). Construction via
// NewSeq keeps sequences flat.
type Seq struct {
	Items []Expr
}

// Str outputs a fixed string.
type Str struct {
	S string
}

// For is a (possibly conditional) for-loop:
//
//	{ for Var in Src/Path [where Where] return Body }
type For struct {
	Var   string // bound variable, with leading '$'
	Src   string // range variable, with leading '$'
	Path  Path
	Where Cond // nil if unconditional
	Body  Expr
}

// PathOut outputs all subtrees reachable from Var through Path ({$x/π}).
type PathOut struct {
	Var  string
	Path Path
}

// VarOut outputs the subtree of Var ({$x}).
type VarOut struct {
	Var string
}

// If is a conditional: { if Cond then Then }.
type If struct {
	Cond Cond
	Then Expr
}

func (*Seq) isExpr()     {}
func (*Str) isExpr()     {}
func (*For) isExpr()     {}
func (*PathOut) isExpr() {}
func (*VarOut) isExpr()  {}
func (*If) isExpr()      {}

// NewSeq builds a flattened sequence: nested Seqs are spliced, nil and
// empty items dropped. A singleton collapses to its item.
func NewSeq(items ...Expr) Expr {
	var out []Expr
	var add func(e Expr)
	add = func(e Expr) {
		switch e := e.(type) {
		case nil:
		case *Seq:
			for _, it := range e.Items {
				add(it)
			}
		case *Str:
			if e.S == "" {
				return
			}
			out = append(out, e)
		default:
			out = append(out, e)
		}
	}
	for _, it := range items {
		add(it)
	}
	switch len(out) {
	case 0:
		return &Seq{}
	case 1:
		return out[0]
	default:
		return &Seq{Items: out}
	}
}

// Items returns e's items if it is a sequence, else a one-element slice
// (empty for the empty sequence).
func Items(e Expr) []Expr {
	if s, ok := e.(*Seq); ok {
		return s.Items
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// --- Conditions ------------------------------------------------------

// RelOp is a comparison operator in an atomic condition.
type RelOp int

// Comparison operators. The paper lists {=,<,≤,>,≥}; != is an extension
// in the spirit of the Appendix A engine.
const (
	OpEq RelOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the surface syntax of the operator.
func (op RelOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// Cond is a Boolean combination of atomic conditions.
type Cond interface {
	isCond()
}

// And is conjunction.
type And struct{ L, R Cond }

// Or is disjunction.
type Or struct{ L, R Cond }

// Not is negation.
type Not struct{ X Cond }

// True is the trivially true condition.
type True struct{}

// Cmp is an atomic comparison L RelOp R with XQuery existential
// (general-comparison) semantics over the node sequences denoted by path
// operands.
type Cmp struct {
	L, R Operand
	Op   RelOp
}

// Exists is `exists $x/π`; with Neg set it is `empty($x/π)`, the
// Appendix A extension (equivalent to `not exists`).
type Exists struct {
	Var  string
	Path Path
	Neg  bool
}

func (*And) isCond()    {}
func (*Or) isCond()     {}
func (*Not) isCond()    {}
func (True) isCond()    {}
func (*Cmp) isCond()    {}
func (*Exists) isCond() {}

// OperandKind distinguishes constant and path operands.
type OperandKind int

// Operand kinds.
const (
	ConstOperand OperandKind = iota
	PathOperand
)

// Operand is one side of a comparison: either a constant string (which
// compares numerically when both sides are numeric), or a path $x/π with
// an optional constant multiplier c (the Appendix A form `c * $y/π`).
type Operand struct {
	Kind  OperandKind
	Const string  // ConstOperand: the literal
	Var   string  // PathOperand: variable
	Path  Path    // PathOperand: fixed path
	Scale float64 // PathOperand: multiplier; 0 means none
}

// ConstOp builds a constant operand.
func ConstOp(s string) Operand { return Operand{Kind: ConstOperand, Const: s} }

// PathOp builds a path operand.
func PathOp(v string, p Path) Operand { return Operand{Kind: PathOperand, Var: v, Path: p} }

// --- AST utilities ----------------------------------------------------

// CondPath is one path occurrence inside a condition.
type CondPath struct {
	Var  string
	Path Path
}

// CondPaths appends all path occurrences of c to out.
func CondPaths(c Cond, out []CondPath) []CondPath {
	switch c := c.(type) {
	case nil, True:
	case *And:
		out = CondPaths(c.L, out)
		out = CondPaths(c.R, out)
	case *Or:
		out = CondPaths(c.L, out)
		out = CondPaths(c.R, out)
	case *Not:
		out = CondPaths(c.X, out)
	case *Cmp:
		if c.L.Kind == PathOperand {
			out = append(out, CondPath{c.L.Var, c.L.Path})
		}
		if c.R.Kind == PathOperand {
			out = append(out, CondPath{c.R.Var, c.R.Path})
		}
	case *Exists:
		out = append(out, CondPath{c.Var, c.Path})
	}
	return out
}

// Walk calls f on e and every subexpression, pre-order.
func Walk(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *Seq:
		for _, it := range e.Items {
			Walk(it, f)
		}
	case *For:
		Walk(e.Body, f)
	case *If:
		Walk(e.Then, f)
	}
}

// FreeVars returns the free variables of e (paper Section 3.2), sorted.
func FreeVars(e Expr) []string {
	set := make(map[string]bool)
	freeInto(e, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func freeInto(e Expr, set map[string]bool) {
	switch e := e.(type) {
	case nil, *Str:
	case *Seq:
		for _, it := range e.Items {
			freeInto(it, set)
		}
	case *VarOut:
		set[e.Var] = true
	case *PathOut:
		set[e.Var] = true
	case *If:
		condFreeInto(e.Cond, set)
		freeInto(e.Then, set)
	case *For:
		set[e.Src] = true
		inner := make(map[string]bool)
		condFreeInto(e.Where, inner)
		freeInto(e.Body, inner)
		delete(inner, e.Var)
		for v := range inner {
			set[v] = true
		}
	}
}

func condFreeInto(c Cond, set map[string]bool) {
	for _, cp := range CondPaths(c, nil) {
		set[cp.Var] = true
	}
}

// UsesVar reports whether {$x} occurs in e (the {$x} ⪯ β test of the
// rewrite algorithm, Figure 2 line 5).
func UsesVar(e Expr, v string) bool {
	found := false
	Walk(e, func(x Expr) {
		if vo, ok := x.(*VarOut); ok && vo.Var == v {
			found = true
		}
	})
	return found
}

// Copy returns a deep copy of e.
func Copy(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Seq:
		items := make([]Expr, len(e.Items))
		for i, it := range e.Items {
			items[i] = Copy(it)
		}
		return &Seq{Items: items}
	case *Str:
		c := *e
		return &c
	case *VarOut:
		c := *e
		return &c
	case *PathOut:
		return &PathOut{Var: e.Var, Path: append(Path(nil), e.Path...)}
	case *If:
		return &If{Cond: CopyCond(e.Cond), Then: Copy(e.Then)}
	case *For:
		return &For{Var: e.Var, Src: e.Src, Path: append(Path(nil), e.Path...),
			Where: CopyCond(e.Where), Body: Copy(e.Body)}
	default:
		panic("xq: unknown expression type")
	}
}

// CopyCond returns a deep copy of c.
func CopyCond(c Cond) Cond {
	switch c := c.(type) {
	case nil:
		return nil
	case True:
		return True{}
	case *And:
		return &And{L: CopyCond(c.L), R: CopyCond(c.R)}
	case *Or:
		return &Or{L: CopyCond(c.L), R: CopyCond(c.R)}
	case *Not:
		return &Not{X: CopyCond(c.X)}
	case *Cmp:
		cc := *c
		cc.L.Path = append(Path(nil), c.L.Path...)
		cc.R.Path = append(Path(nil), c.R.Path...)
		return &cc
	case *Exists:
		return &Exists{Var: c.Var, Path: append(Path(nil), c.Path...), Neg: c.Neg}
	default:
		panic("xq: unknown condition type")
	}
}

// RenameVar rewrites every occurrence of variable old in e to new,
// respecting shadowing by inner bindings of old.
func RenameVar(e Expr, old, new string) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Str:
		return e
	case *Seq:
		items := make([]Expr, len(e.Items))
		for i, it := range e.Items {
			items[i] = RenameVar(it, old, new)
		}
		return &Seq{Items: items}
	case *VarOut:
		if e.Var == old {
			return &VarOut{Var: new}
		}
		return e
	case *PathOut:
		if e.Var == old {
			return &PathOut{Var: new, Path: e.Path}
		}
		return e
	case *If:
		return &If{Cond: renameCondVar(e.Cond, old, new), Then: RenameVar(e.Then, old, new)}
	case *For:
		out := &For{Var: e.Var, Src: e.Src, Path: e.Path, Where: e.Where, Body: e.Body}
		if out.Src == old {
			out.Src = new
		}
		if e.Var != old { // shadowed otherwise
			out.Where = renameCondVar(e.Where, old, new)
			out.Body = RenameVar(e.Body, old, new)
		}
		return out
	default:
		panic("xq: unknown expression type")
	}
}

func renameCondVar(c Cond, old, new string) Cond {
	return mapCondPaths(c, func(v string, p Path) (string, Path) {
		if v == old {
			v = new
		}
		return v, p
	})
}

// mapCondPaths returns c with every path $v/p replaced by f(v, p).
func mapCondPaths(c Cond, f func(v string, p Path) (string, Path)) Cond {
	switch c := c.(type) {
	case nil:
		return nil
	case True:
		return c
	case *And:
		return &And{L: mapCondPaths(c.L, f), R: mapCondPaths(c.R, f)}
	case *Or:
		return &Or{L: mapCondPaths(c.L, f), R: mapCondPaths(c.R, f)}
	case *Not:
		return &Not{X: mapCondPaths(c.X, f)}
	case *Cmp:
		cc := *c
		for _, o := range []*Operand{&cc.L, &cc.R} {
			if o.Kind == PathOperand {
				o.Var, o.Path = f(o.Var, o.Path)
			}
		}
		return &cc
	case *Exists:
		v, p := f(c.Var, c.Path)
		return &Exists{Var: v, Path: p, Neg: c.Neg}
	default:
		panic("xq: unknown condition type")
	}
}
