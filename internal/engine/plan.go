// Package engine implements the streaming FluX query engine of the
// paper's Section 5: per-variable evaluators driven by SAX events, with
// first-past punctuation events generated by validating Glushkov runs
// (Appendix B), statically inferred buffer trees (Π / prefix trees /
// marking / pruning), on-the-fly condition flags, and exact accounting of
// buffered bytes.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"flux/internal/core"
	"flux/internal/dom"
	"flux/internal/dtd"
	"flux/internal/sax"
	"flux/internal/xq"
)

// CompileError reports a query the engine cannot execute.
type CompileError struct {
	Msg string
}

// Error implements error.
func (e *CompileError) Error() string { return "engine: compile: " + e.Msg }

// Plan is a compiled, executable FluX query.
type Plan struct {
	schema *dtd.Schema
	root   *scopeSpec

	// Static routing and cost analysis, built once at Compile time.
	sig       *SigNode
	prune     *sax.PruneNode
	sigKey    string
	predicted int64
}

// Schema returns the schema the plan was compiled against.
func (p *Plan) Schema() *dtd.Schema { return p.schema }

// Describe renders the plan's scopes, buffer trees and watchers for
// debugging and the fluxc tool.
func (p *Plan) Describe() string {
	var b strings.Builder
	describeScope(&b, p.root, 0)
	return b.String()
}

// scopeSpec is the compiled form of one process-stream expression.
type scopeSpec struct {
	Var      string
	Elem     string // element the variable binds to (or dtd.DocumentVar)
	prod     *dtd.Production
	handlers []*handlerSpec
	onByName map[string]int // element name -> handler index (single on per name)

	bufTree  *bufTreeNode   // nil when the scope buffers nothing
	watchers []*watcherSpec // flag conditions evaluated on the fly
}

type handlerKind int

const (
	hOnFirst handlerKind = iota
	hOn
)

// handlerSpec is one event handler.
type handlerSpec struct {
	kind handlerKind

	// on-first
	past      []string
	pastTable []bool // per state of the scope's automaton
	body      *execProg

	// on
	name   string
	childV string
	child  *scopeSpec  // PS body
	simple *simpleSpec // simple body (stream-copy form)
}

// simpleSpec is a compiled simple expression used as an on-handler body:
// prefix actions, an optional guarded copy of the child subtree, suffix
// actions, plus watchers for conditions on the child variable itself.
type simpleSpec struct {
	prefix   []*execProg // each a string or guarded string
	copySub  bool        // middle {$u} present
	copyCond *condSpec   // guard for {if χ then {$u}}; nil = unconditional
	suffix   []*execProg
	watchers []*watcherSpec // conditions rooted at the child variable
}

// bufTreeNode is a node of a pruned buffer tree T^p($r) (Section 5).
type bufTreeNode struct {
	kids map[string]*bufTreeNode
	mark bool // keep the full subtree (topmost marked node)
}

func newBufTreeNode() *bufTreeNode { return &bufTreeNode{kids: make(map[string]*bufTreeNode)} }

func (n *bufTreeNode) extend(path []string) *bufTreeNode {
	cur := n
	for _, s := range path {
		next, ok := cur.kids[s]
		if !ok {
			next = newBufTreeNode()
			cur.kids[s] = next
		}
		cur = next
	}
	return cur
}

// prune removes subtrees below marked nodes (the paper's T^p).
func (n *bufTreeNode) prune() {
	if n.mark {
		n.kids = nil
		return
	}
	for _, k := range n.kids {
		k.prune()
	}
}

func (n *bufTreeNode) empty() bool { return !n.mark && len(n.kids) == 0 }

// watcherKind distinguishes flag conditions.
type watcherKind int

const (
	wCmp    watcherKind = iota // path RelOp const (or const RelOp path)
	wExists                    // exists path (empty() reads the negation)
)

// watcherSpec is a flag condition evaluated on the fly within a variable
// scope: a fixed path relative to the scope variable plus a comparison
// against a constant. One Boolean flag per scope instance suffices
// (Section 5); no data is buffered.
type watcherSpec struct {
	key    string // canonical form, for dedup
	kind   watcherKind
	path   []string
	op     xq.RelOp
	rhs    string  // constant operand
	rhsCmp cmpVal  // rhs pre-parsed at compile time
	scale  float64 // multiplier applied to the path value (0 = none)
	flip   bool    // constant was on the left of the comparison
}

// condSpec is a compiled Boolean condition.
type condSpec struct {
	kind condKind
	l, r *condSpec // and/or
	x    *condSpec // not
	atom *atomSpec
}

type condKind int

const (
	cTrue condKind = iota
	cAnd
	cOr
	cNot
	cAtom
)

// atomSpec evaluates one atomic condition: either a flag lookup (stream
// variable, constant comparison) or navigation over buffered nodes.
type atomSpec struct {
	flag *flagRef // non-nil: read a watcher flag

	// navigation form:
	op     xq.RelOp
	lhs    *navOperand
	rhs    *navOperand
	exists *navOperand // exists/empty form
	neg    bool
}

type flagRef struct {
	scopeVar string // "" means the enclosing simple handler's child var
	idx      int
	neg      bool // read as empty()
}

// navOperand denotes a value sequence: a constant or a buffered path.
type navOperand struct {
	constVal string
	constCmp cmpVal // constVal pre-parsed at compile time
	isConst  bool
	varName  string
	path     []string
	scale    float64
}

// execProg is a compiled XQuery⁻ program run over buffers (an on-first
// body) or emitting guarded strings.
type execProg struct {
	kind execKind
	// seq
	items []*execProg
	// str
	str string
	// varOut
	varName string
	// for
	loopVar string
	src     string
	step    string
	body    *execProg
	join    *joinSpec // non-nil: a join loop (join.go)
	// if
	cond *condSpec
	then *execProg
}

type execKind int

const (
	eSeq execKind = iota
	eStr
	eVarOut
	eFor
	eIf
)

// varClass classifies variables visible at a compile site.
type varClass int

const (
	vScope varClass = iota // process-stream variable (stream-bound)
	vExec                  // for-loop variable over buffered nodes
	vChild                 // the child variable of a simple on-handler
)

// compileCtx tracks bindings during compilation.
type compileCtx struct {
	schema *dtd.Schema
	scopes map[string]*scopeSpec // by variable
	class  map[string]varClass
	// conds collects, per scope variable, the canonical watcher set.
	simpleHost *simpleSpec // when compiling inside a simple handler
	simpleVar  string
}

// Compile translates a FluX query in normal form into an executable
// plan. It is the one gate every prepared query passes: the query must
// satisfy core.CheckSafety, the rule that each handler runs only once the
// data it reads is complete, which the engine then trusts. A top-level
// simple expression compiles in the form core.LiftTopLevelSimple gives it.
// Beyond the rule, the engine refuses shapes it has no runtime for: two on
// handlers for one element in a scope, an on handler whose body is
// neither a process-stream nor a simple expression over its variable, and
// value joins on a simple handler's child variable.
func Compile(schema *dtd.Schema, f core.Flux) (*Plan, error) {
	if err := core.CheckSafety(schema, f); err != nil {
		return nil, err
	}
	ps := core.LiftTopLevelSimple(f, schema.Root).(*core.PS)
	ctx := &compileCtx{
		schema: schema,
		scopes: make(map[string]*scopeSpec),
		class:  make(map[string]varClass),
	}
	root, err := ctx.compileScope(ps, dtd.DocumentVar)
	if err != nil {
		return nil, err
	}
	plan := &Plan{schema: schema, root: root}
	// Buffer trees need every scope known, so they are computed in a
	// second pass over all on-first bodies.
	if err := ctx.buildBufferTrees(root); err != nil {
		return nil, err
	}
	plan.buildSignature()
	return plan, nil
}

func (ctx *compileCtx) compileScope(ps *core.PS, elem string) (*scopeSpec, error) {
	prod, ok := ctx.schema.Production(elem)
	if !ok {
		return nil, &CompileError{Msg: fmt.Sprintf("no DTD production for element %q (variable %s)", elem, ps.Var)}
	}
	s := &scopeSpec{
		Var:      ps.Var,
		Elem:     elem,
		prod:     prod,
		onByName: make(map[string]int),
	}
	ctx.scopes[ps.Var] = s
	ctx.class[ps.Var] = vScope

	for _, h := range ps.Handlers {
		switch h := h.(type) {
		case *core.OnFirst:
			past := h.Past
			if h.Star {
				past = prod.Auto.Symbols()
			}
			prog, err := ctx.compileExec(h.Body)
			if err != nil {
				return nil, err
			}
			s.handlers = append(s.handlers, &handlerSpec{
				kind:      hOnFirst,
				past:      past,
				pastTable: prod.Auto.PastTable(past),
				body:      prog,
			})
		case *core.On:
			if _, dup := s.onByName[h.Name]; dup {
				return nil, &CompileError{Msg: fmt.Sprintf(
					"scope %s has multiple on handlers for element %q; merge the loops (Section 7) or restructure the query", ps.Var, h.Name)}
			}
			hs := &handlerSpec{kind: hOn, name: h.Name, childV: h.Var}
			switch body := h.Body.(type) {
			case *core.PS:
				child, err := ctx.compileScope(body, h.Name)
				if err != nil {
					return nil, err
				}
				hs.child = child
			case *core.Simple:
				simple, err := ctx.compileSimple(body.Expr, h.Var, h.Name)
				if err != nil {
					return nil, err
				}
				hs.simple = simple
			default:
				return nil, &CompileError{Msg: "unknown on-handler body type"}
			}
			s.onByName[h.Name] = len(s.handlers)
			s.handlers = append(s.handlers, hs)
		}
	}
	return s, nil
}

// compileSimple compiles a simple on-handler body (Definition 3.2 shape).
func (ctx *compileCtx) compileSimple(e xq.Expr, childVar, childElem string) (*simpleSpec, error) {
	if u, ok := core.IsSimple(e); !ok || (u != "" && u != childVar) {
		return nil, &CompileError{Msg: fmt.Sprintf(
			"on %s handler body is not a simple expression over %s: %s", childElem, childVar, xq.Print(e))}
	}
	sp := &simpleSpec{}
	ctx.class[childVar] = vChild
	prevHost, prevVar := ctx.simpleHost, ctx.simpleVar
	ctx.simpleHost, ctx.simpleVar = sp, childVar
	defer func() {
		ctx.simpleHost, ctx.simpleVar = prevHost, prevVar
		delete(ctx.class, childVar)
	}()

	seenCopy := false
	for _, it := range xq.Items(e) {
		var copyThis bool
		var guard xq.Cond
		switch it := it.(type) {
		case *xq.Str:
			sp.appendAction(&execProg{kind: eStr, str: it.S}, seenCopy)
			continue
		case *xq.VarOut:
			copyThis = true
		case *xq.If:
			if v, ok := it.Then.(*xq.VarOut); ok && v.Var == childVar {
				copyThis, guard = true, it.Cond
			} else {
				prog, err := ctx.compileExec(it)
				if err != nil {
					return nil, err
				}
				sp.appendAction(prog, seenCopy)
				continue
			}
		default:
			return nil, &CompileError{Msg: "unexpected item in simple expression: " + xq.Print(it)}
		}
		if copyThis {
			sp.copySub = true
			seenCopy = true
			if guard != nil {
				c, err := ctx.compileCond(guard)
				if err != nil {
					return nil, err
				}
				sp.copyCond = c
			}
		}
	}
	return sp, nil
}

func (sp *simpleSpec) appendAction(p *execProg, afterCopy bool) {
	if afterCopy {
		sp.suffix = append(sp.suffix, p)
	} else {
		sp.prefix = append(sp.prefix, p)
	}
}

// compileExec compiles an XQuery⁻ expression into an executable program.
// For-loops range over buffered nodes; their variables are exec-bound.
func (ctx *compileCtx) compileExec(e xq.Expr) (*execProg, error) {
	switch e := e.(type) {
	case nil:
		return &execProg{kind: eSeq}, nil
	case *xq.Seq:
		out := &execProg{kind: eSeq}
		for _, it := range e.Items {
			p, err := ctx.compileExec(it)
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, p)
		}
		return out, nil
	case *xq.Str:
		return &execProg{kind: eStr, str: e.S}, nil
	case *xq.VarOut:
		return &execProg{kind: eVarOut, varName: e.Var}, nil
	case *xq.For:
		if len(e.Path) != 1 || e.Where != nil {
			return nil, &CompileError{Msg: "for-loop not in normal form: " + xq.Print(e)}
		}
		ctx.class[e.Var] = vExec
		body, err := ctx.compileExec(e.Body)
		delete(ctx.class, e.Var)
		if err != nil {
			return nil, err
		}
		return &execProg{kind: eFor, loopVar: e.Var, src: e.Src, step: e.Path[0], body: body,
			join: detectJoin(e.Var, body)}, nil
	case *xq.If:
		c, err := ctx.compileCond(e.Cond)
		if err != nil {
			return nil, err
		}
		then, err := ctx.compileExec(e.Then)
		if err != nil {
			return nil, err
		}
		return &execProg{kind: eIf, cond: c, then: then}, nil
	case *xq.PathOut:
		return nil, &CompileError{Msg: "path output not in normal form: " + xq.Print(e)}
	default:
		return nil, &CompileError{Msg: fmt.Sprintf("unknown expression type %T", e)}
	}
}

func (ctx *compileCtx) compileCond(c xq.Cond) (*condSpec, error) {
	switch c := c.(type) {
	case nil, xq.True:
		return &condSpec{kind: cTrue}, nil
	case *xq.And:
		l, err := ctx.compileCond(c.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.compileCond(c.R)
		if err != nil {
			return nil, err
		}
		return &condSpec{kind: cAnd, l: l, r: r}, nil
	case *xq.Or:
		l, err := ctx.compileCond(c.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.compileCond(c.R)
		if err != nil {
			return nil, err
		}
		return &condSpec{kind: cOr, l: l, r: r}, nil
	case *xq.Not:
		x, err := ctx.compileCond(c.X)
		if err != nil {
			return nil, err
		}
		return &condSpec{kind: cNot, x: x}, nil
	case *xq.Exists:
		atom, err := ctx.compileExistsAtom(c)
		if err != nil {
			return nil, err
		}
		return &condSpec{kind: cAtom, atom: atom}, nil
	case *xq.Cmp:
		atom, err := ctx.compileCmpAtom(c)
		if err != nil {
			return nil, err
		}
		return &condSpec{kind: cAtom, atom: atom}, nil
	default:
		return nil, &CompileError{Msg: fmt.Sprintf("unknown condition type %T", c)}
	}
}

// streamBound reports whether an atom on this variable should be a flag
// watcher: scope variables and simple-handler child variables are
// stream-bound; exec loop variables are buffer-bound.
func (ctx *compileCtx) streamBound(v string) (bool, error) {
	cl, ok := ctx.class[v]
	if !ok {
		return false, &CompileError{Msg: "unbound variable " + v + " in condition"}
	}
	return cl == vScope || cl == vChild, nil
}

func (ctx *compileCtx) compileExistsAtom(c *xq.Exists) (*atomSpec, error) {
	stream, err := ctx.streamBound(c.Var)
	if err != nil {
		return nil, err
	}
	if stream {
		ref, err := ctx.addWatcher(c.Var, &watcherSpec{
			kind: wExists,
			path: c.Path,
		})
		if err != nil {
			return nil, err
		}
		ref.neg = c.Neg
		return &atomSpec{flag: ref}, nil
	}
	return &atomSpec{
		exists: &navOperand{varName: c.Var, path: c.Path},
		neg:    c.Neg,
	}, nil
}

func (ctx *compileCtx) compileCmpAtom(c *xq.Cmp) (*atomSpec, error) {
	// Constant vs constant degenerates to navigation with two constants.
	pathVsConst := (c.L.Kind == xq.PathOperand) != (c.R.Kind == xq.PathOperand)
	if pathVsConst {
		p, k, flip := c.L, c.R, false
		if c.R.Kind == xq.PathOperand {
			p, k, flip = c.R, c.L, true
		}
		stream, err := ctx.streamBound(p.Var)
		if err != nil {
			return nil, err
		}
		if stream {
			ref, err := ctx.addWatcher(p.Var, &watcherSpec{
				kind:  wCmp,
				path:  p.Path,
				op:    c.Op,
				rhs:   k.Const,
				scale: p.Scale,
				flip:  flip,
			})
			if err != nil {
				return nil, err
			}
			return &atomSpec{flag: ref}, nil
		}
	}
	l, err := ctx.navOperand(c.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.navOperand(c.R)
	if err != nil {
		return nil, err
	}
	return &atomSpec{op: c.Op, lhs: l, rhs: r}, nil
}

func (ctx *compileCtx) navOperand(o xq.Operand) (*navOperand, error) {
	if o.Kind == xq.ConstOperand {
		op := &navOperand{isConst: true, constVal: o.Const}
		op.constCmp, _ = makeCmpVal(o.Const, 0)
		return op, nil
	}
	cl, ok := ctx.class[o.Var]
	if !ok {
		return nil, &CompileError{Msg: "unbound variable " + o.Var + " in condition"}
	}
	if cl == vChild {
		return nil, &CompileError{Msg: "join condition on simple-handler variable " + o.Var + " is not supported"}
	}
	return &navOperand{varName: o.Var, path: o.Path, scale: o.Scale}, nil
}

// addWatcher registers a flag watcher on a stream variable, deduplicating
// identical atoms (the same condition repeated across handlers shares one
// flag).
func (ctx *compileCtx) addWatcher(v string, w *watcherSpec) (*flagRef, error) {
	w.key = fmt.Sprintf("%d|%s|%d|%s|%v|%v", w.kind, strings.Join(w.path, "/"), w.op, w.rhs, w.scale, w.flip)
	w.rhsCmp, _ = makeCmpVal(w.rhs, 0)
	if ctx.class[v] == vChild {
		if v != ctx.simpleVar || ctx.simpleHost == nil {
			return nil, &CompileError{Msg: "condition on foreign simple-handler variable " + v}
		}
		for i, ex := range ctx.simpleHost.watchers {
			if ex.key == w.key {
				return &flagRef{scopeVar: "", idx: i}, nil
			}
		}
		ctx.simpleHost.watchers = append(ctx.simpleHost.watchers, w)
		return &flagRef{scopeVar: "", idx: len(ctx.simpleHost.watchers) - 1}, nil
	}
	s := ctx.scopes[v]
	for i, ex := range s.watchers {
		if ex.key == w.key {
			return &flagRef{scopeVar: v, idx: i}, nil
		}
	}
	s.watchers = append(s.watchers, w)
	return &flagRef{scopeVar: v, idx: len(s.watchers) - 1}, nil
}

// --- Buffer tree construction (Π of Section 5) -------------------------

// buildBufferTrees computes Π($r) for every scope variable over all
// on-first bodies and materializes pruned buffer trees.
func (ctx *compileCtx) buildBufferTrees(root *scopeSpec) error {
	for _, s := range ctx.scopes {
		s.bufTree = newBufTreeNode()
	}
	if err := ctx.walkBodies(root); err != nil {
		return err
	}
	for _, s := range ctx.scopes {
		s.bufTree.prune()
		if s.bufTree.empty() && !s.bufTree.mark {
			s.bufTree = nil
		}
	}
	return nil
}

func (ctx *compileCtx) walkBodies(s *scopeSpec) error {
	for _, h := range s.handlers {
		switch h.kind {
		case hOnFirst:
			if err := ctx.piProg(h.body, map[string]*bufTreeNode{}); err != nil {
				return err
			}
		case hOn:
			if h.child != nil {
				if err := ctx.walkBodies(h.child); err != nil {
					return err
				}
			}
			if h.simple != nil {
				// The copy guard reads buffers like any exec condition.
				if c := h.simple.copyCond; c != nil {
					guard := &execProg{kind: eIf, cond: c, then: &execProg{kind: eSeq}}
					if err := ctx.piProg(guard, map[string]*bufTreeNode{}); err != nil {
						return err
					}
				}
				for _, p := range h.simple.prefix {
					if err := ctx.piProg(p, map[string]*bufTreeNode{}); err != nil {
						return err
					}
				}
				for _, p := range h.simple.suffix {
					if err := ctx.piProg(p, map[string]*bufTreeNode{}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// piProg implements Π over a compiled program. local maps exec variables
// to their buffer-tree nodes; scope variables resolve to scope tree roots.
func (ctx *compileCtx) piProg(p *execProg, local map[string]*bufTreeNode) error {
	resolve := func(v string) (*bufTreeNode, bool) {
		if n, ok := local[v]; ok {
			return n, true
		}
		if s, ok := ctx.scopes[v]; ok {
			return s.bufTree, true
		}
		return nil, false
	}
	switch p.kind {
	case eSeq:
		for _, it := range p.items {
			if err := ctx.piProg(it, local); err != nil {
				return err
			}
		}
	case eStr:
	case eVarOut:
		n, ok := resolve(p.varName)
		if !ok {
			return &CompileError{Msg: "output of unbound variable " + p.varName}
		}
		n.mark = true
	case eFor:
		src, ok := resolve(p.src)
		if !ok {
			return &CompileError{Msg: "loop over unbound variable " + p.src}
		}
		bound := src.extend([]string{p.step})
		local[p.loopVar] = bound
		err := ctx.piProg(p.body, local)
		delete(local, p.loopVar)
		if err != nil {
			return err
		}
	case eIf:
		if err := ctx.piCond(p.cond, local, resolve); err != nil {
			return err
		}
		if err := ctx.piProg(p.then, local); err != nil {
			return err
		}
	}
	return nil
}

func (ctx *compileCtx) piCond(c *condSpec, local map[string]*bufTreeNode, resolve func(string) (*bufTreeNode, bool)) error {
	switch c.kind {
	case cTrue:
	case cAnd, cOr:
		if err := ctx.piCond(c.l, local, resolve); err != nil {
			return err
		}
		return ctx.piCond(c.r, local, resolve)
	case cNot:
		return ctx.piCond(c.x, local, resolve)
	case cAtom:
		a := c.atom
		if a.flag != nil {
			return nil // flag watchers buffer nothing
		}
		mark := func(o *navOperand, needValue bool) error {
			if o == nil || o.isConst {
				return nil
			}
			n, ok := resolve(o.varName)
			if !ok {
				return &CompileError{Msg: "condition on unbound variable " + o.varName}
			}
			leaf := n.extend(o.path)
			if needValue {
				leaf.mark = true
			}
			return nil
		}
		if a.exists != nil {
			return mark(a.exists, false) // tags suffice for exists/empty
		}
		if err := mark(a.lhs, true); err != nil {
			return err
		}
		return mark(a.rhs, true)
	}
	return nil
}

// --- Plan description ---------------------------------------------------

func describeScope(b *strings.Builder, s *scopeSpec, depth int) {
	pad := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%sscope %s (element %s)\n", pad, s.Var, s.Elem)
	if s.bufTree != nil {
		fmt.Fprintf(b, "%s  buffer tree:\n", pad)
		describeBufTree(b, s.bufTree, s.Var, depth+2)
	}
	for _, w := range s.watchers {
		fmt.Fprintf(b, "%s  watcher: %s\n", pad, w.describe(s.Var))
	}
	for _, h := range s.handlers {
		switch h.kind {
		case hOnFirst:
			fmt.Fprintf(b, "%s  on-first past(%s)\n", pad, strings.Join(h.past, ","))
			describeJoins(b, h.body, depth+2)
		case hOn:
			fmt.Fprintf(b, "%s  on %s as %s%s\n", pad, h.name, h.childV, describeSimple(h.simple))
			if h.simple != nil {
				for _, p := range h.simple.prefix {
					describeJoins(b, p, depth+2)
				}
				for _, p := range h.simple.suffix {
					describeJoins(b, p, depth+2)
				}
			}
			if h.child != nil {
				describeScope(b, h.child, depth+2)
			}
		}
	}
}

// describeJoins lists the join loops of a program with their strategy.
func describeJoins(b *strings.Builder, p *execProg, depth int) {
	switch p.kind {
	case eSeq:
		for _, it := range p.items {
			describeJoins(b, it, depth)
		}
	case eFor:
		if p.join != nil {
			fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), p.join.describe())
		}
		describeJoins(b, p.body, depth)
	case eIf:
		describeJoins(b, p.then, depth)
	}
}

func describeSimple(sp *simpleSpec) string {
	if sp == nil {
		return ""
	}
	out := " (simple"
	if sp.copySub {
		out += ", stream-copy"
	}
	return out + ")"
}

func (w *watcherSpec) describe(v string) string {
	path := v + "/" + strings.Join(w.path, "/")
	if w.kind == wExists {
		return "exists " + path
	}
	return fmt.Sprintf("%s %s %q", path, w.op, w.rhs)
}

func describeBufTree(b *strings.Builder, n *bufTreeNode, name string, depth int) {
	pad := strings.Repeat("  ", depth)
	mark := ""
	if n.mark {
		mark = " •"
	}
	fmt.Fprintf(b, "%s%s%s\n", pad, name, mark)
	kids := make([]string, 0, len(n.kids))
	for k := range n.kids {
		kids = append(kids, k)
	}
	sort.Strings(kids)
	for _, k := range kids {
		describeBufTree(b, n.kids[k], k, depth+1)
	}
}

// bufNode is an alias clarifying that buffers reuse the dom node type:
// data replayed from a buffer is indistinguishable from stream input.
type bufNode = dom.Node
