package engine

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"flux/internal/dom"
	"flux/internal/dtd"
	"flux/internal/sax"
	"flux/internal/xq"
)

// Stats reports the resources a query execution used.
type Stats struct {
	// PeakBufferBytes is the maximum number of bytes held in main-memory
	// buffers at any point (tag bytes for buffered elements plus text
	// bytes), the quantity Figure 4 reports as memory consumption.
	PeakBufferBytes int64
	// OutputBytes is the number of result bytes produced.
	OutputBytes int64
	// Tokens is the number of SAX events processed.
	Tokens int64
}

// RunError reports a runtime failure (invalid input or an engine
// invariant violation).
type RunError struct {
	Msg string
}

// Error implements error.
func (e *RunError) Error() string { return "engine: run: " + e.Msg }

// Run executes a compiled plan over the XML stream read from r, writing
// the query result to w. It is the single-query convenience around
// Session; multi-query shared scans build on Session directly.
func Run(plan *Plan, r io.Reader, w io.Writer, opt sax.Options) (Stats, error) {
	return RunContext(context.Background(), plan, r, w, opt)
}

// RunContext is Run with cancellation: once ctx is done the scan stops
// at the next event batch and the error is ctx.Err(). On any failure the
// returned Stats cover the stream prefix processed before the failure.
//
// The scan is batched (sax.ScanBatchedContext): events arrive in pooled
// batches with arena-backed text payloads, which the session unpacks
// without allocating a string per text node.
func RunContext(ctx context.Context, plan *Plan, r io.Reader, w io.Writer, opt sax.Options) (Stats, error) {
	s := NewSession(plan, w)
	if err := s.Begin(); err != nil {
		return s.Abort(), err
	}
	if err := sax.ScanBatchedContext(ctx, r, s, opt); err != nil {
		return s.Abort(), err
	}
	return s.Finish()
}

// scopeRT is one runtime instance of a process-stream scope.
type scopeRT struct {
	spec    *scopeSpec
	bufRoot *bufNode // non-nil iff the scope buffers data
	flags   []bool   // one per watcher
	fired   []bool   // one per on-first handler
	bytes   int64    // bytes charged to this scope's buffer
}

// capRef is a full-capture target: events under the current element are
// appended below node, charged to owner.
type capRef struct {
	node  *bufNode
	owner *scopeRT
}

// fillPos is a tags-only buffer-tree position.
type fillPos struct {
	tree   *bufTreeNode
	parent *bufNode
	owner  *scopeRT
}

// watchPos is a partially matched watcher path.
type watchPos struct {
	scope   *scopeRT  // watcher belongs to a scope...
	simple  *simpleRT // ...or to a simple handler instance
	specIdx int
	pathIdx int
}

func (wp watchPos) spec() *watcherSpec {
	if wp.simple != nil {
		return wp.simple.spec.watchers[wp.specIdx]
	}
	return wp.scope.spec.watchers[wp.specIdx]
}

func (wp watchPos) flags() []bool {
	if wp.simple != nil {
		return wp.simple.flags
	}
	return wp.scope.flags
}

// valueAcc accumulates the string value of a matched watcher path
// occurrence.
type valueAcc struct {
	spec  *watcherSpec
	flags []bool
	idx   int
	sb    strings.Builder
}

// simpleRT is one firing of a simple on-handler.
type simpleRT struct {
	spec  *simpleSpec
	flags []bool
}

// deferredExec is an on-first body whose scan position is after the
// firing on-handler; it runs when the current child's subtree ends.
type deferredExec struct {
	h  *handlerSpec
	rt *scopeRT
}

// frame is the per-open-element runtime state.
type frame struct {
	prod  *dtd.Production
	state int
	name  string

	// One-entry transition memo: the last (state, child name) step taken
	// from this frame, with the resolved child production. Sibling runs of
	// the same element name skip the automaton and schema map lookups.
	memoName string
	memoFrom int
	memoNext int
	memoProd *dtd.Production

	scope     *scopeRT // set if this element opened a scope
	prevInst  *scopeRT // saved instance for the scope variable
	scopeVar  string
	copying   bool
	simple    *simpleRT
	captures  []capRef
	fills     []fillPos
	watch     []watchPos
	accs      []*valueAcc // active accumulators (inherited + own)
	ownAccs   []*valueAcc // finalize at this element's end
	deferred  []deferredExec
	skipDepth bool // purely structural frame with no sinks
}

type engine struct {
	plan      *Plan
	w         *sax.Writer
	frames    []frame
	inst      map[string]*scopeRT
	curBytes  int64
	peakBytes int64
	tokens    int64

	// Condition-evaluation scratch: the node and value sequences a
	// comparison materializes are collected into these reusable slices
	// instead of fresh allocations. Only one condition evaluates at a
	// time (exec programs never nest through the event loop), so a
	// single set per engine suffices.
	selScratch []*bufNode
	lhsVals    []cmpVal
	rhsVals    []cmpVal

	// joins holds one index per join loop run so far (join.go).
	joins []*joinIndex

	nodeBlock []bufNode // chunked slab for captured-subtree nodes (arena.go)
	textBlock []byte    // chunked slab for captured text strings (arena.go)
}

func (e *engine) account(owner *scopeRT, delta int64) {
	owner.bytes += delta
	e.curBytes += delta
	if e.curBytes > e.peakBytes {
		e.peakBytes = e.curBytes
	}
}

func (e *engine) newScopeRT(spec *scopeSpec, elemName string) *scopeRT {
	rt := &scopeRT{
		spec:  spec,
		flags: make([]bool, len(spec.watchers)),
		fired: make([]bool, len(spec.handlers)),
	}
	if spec.bufTree != nil {
		rt.bufRoot = e.newNode()
		rt.bufRoot.Name = elemName
		e.account(rt, int64(2*len(elemName)+5))
	}
	return rt
}

// attachScope wires a new scope instance into its frame: buffer root,
// watcher positions, instance registration, and i=0 on-first firing.
func (e *engine) attachScope(f *frame, rt *scopeRT) error {
	f.scope = rt
	f.scopeVar = rt.spec.Var
	f.prevInst = e.inst[rt.spec.Var]
	e.inst[rt.spec.Var] = rt
	if rt.bufRoot != nil {
		if rt.spec.bufTree.mark {
			f.captures = append(f.captures, capRef{node: rt.bufRoot, owner: rt})
		} else {
			f.fills = append(f.fills, fillPos{tree: rt.spec.bufTree, parent: rt.bufRoot, owner: rt})
		}
	}
	for i := range rt.spec.watchers {
		f.watch = append(f.watch, watchPos{scope: rt, specIdx: i})
	}
	// i = 0 scan: on-first handlers whose Past set is already past in q0.
	// Mixed (#PCDATA) productions defer all on-first handlers to the
	// closing tag: character data may arrive at any point, so buffered
	// content is complete only then (the paper's "on-first past(*) delays
	// execution until the complete node has been seen").
	if rt.spec.prod.Mixed {
		return nil
	}
	for i, h := range rt.spec.handlers {
		if h.kind == hOnFirst && h.pastTable[rt.spec.prod.Auto.Start()] {
			rt.fired[i] = true
			if err := e.runExec(h.body, &execEnv{eng: e}); err != nil {
				return err
			}
		}
	}
	return nil
}

// pushFrame grows the frame stack by one and returns the new top, reset
// for reuse. Popped frames park beyond len with their inner slice
// capacity intact, so a sibling element at the same depth re-enters a
// warm frame and the per-element capture/watch appends stop allocating.
// Growth may move the backing array: callers must re-take any frame
// pointers they hold after calling.
func (e *engine) pushFrame() *frame {
	if n := len(e.frames); n < cap(e.frames) {
		e.frames = e.frames[:n+1]
	} else {
		e.frames = append(e.frames, frame{})
	}
	f := &e.frames[len(e.frames)-1]
	f.prod = nil
	f.state = 0
	f.name = ""
	f.memoName = "" // the memo is only valid for this frame's production
	f.memoProd = nil
	f.scope = nil
	f.prevInst = nil
	f.scopeVar = ""
	f.copying = false
	f.simple = nil
	f.captures = f.captures[:0]
	f.fills = f.fills[:0]
	f.watch = f.watch[:0]
	f.accs = f.accs[:0]
	f.ownAccs = f.ownAccs[:0]
	f.deferred = f.deferred[:0]
	f.skipDepth = false
	return f
}

// scrub zeroes a frame's pointer contents (including those parked beyond
// the lengths of its inner slices) while keeping the slice capacity, so a
// pooled engine pins no buffered subtrees between runs.
func (f *frame) scrub() {
	f.prod = nil
	f.state = 0
	f.name = ""
	f.memoName = ""
	f.memoFrom = 0
	f.memoNext = 0
	f.memoProd = nil
	f.scope = nil
	f.prevInst = nil
	f.scopeVar = ""
	f.copying = false
	f.simple = nil
	clear(f.captures[:cap(f.captures)])
	f.captures = f.captures[:0]
	clear(f.fills[:cap(f.fills)])
	f.fills = f.fills[:0]
	clear(f.watch[:cap(f.watch)])
	f.watch = f.watch[:0]
	clear(f.accs[:cap(f.accs)])
	f.accs = f.accs[:0]
	clear(f.ownAccs[:cap(f.ownAccs)])
	f.ownAccs = f.ownAccs[:0]
	clear(f.deferred[:cap(f.deferred)])
	f.deferred = f.deferred[:0]
	f.skipDepth = false
}

// begin sets up the synthetic document frame for the $ROOT scope.
func (e *engine) begin() error {
	docProd, _ := e.plan.schema.Production(dtd.DocumentVar)
	f := e.pushFrame()
	f.prod = docProd
	f.state = docProd.Auto.Start()
	f.name = dtd.DocumentVar
	rt := e.newScopeRT(e.plan.root, dtd.DocumentVar)
	return e.attachScope(f, rt)
}

// finish closes the document scope at end of stream.
func (e *engine) finish() error {
	f := &e.frames[0]
	if !f.prod.Auto.Accepting(f.state) {
		return &RunError{Msg: "document ended before the root element"}
	}
	return e.closeScope(f)
}

// StartElement implements sax.Handler.
func (e *engine) StartElement(name string) error {
	e.tokens++
	top := &e.frames[len(e.frames)-1]

	// Validating automaton step (also drives punctuation), fused with the
	// child's production lookup. Repeated same-named siblings — the common
	// shape of XMark containers — hit the frame's one-entry memo and skip
	// both map lookups (the scanner interns names, so the string compare
	// is usually a pointer compare).
	prevState := top.state
	var next int
	var childProd *dtd.Production
	if name == top.memoName && prevState == top.memoFrom {
		next = top.memoNext
		childProd = top.memoProd
	} else {
		var ok bool
		next, ok = top.prod.Auto.Step(top.state, name)
		if !ok {
			return &RunError{Msg: fmt.Sprintf("element <%s> not allowed by content model %s of <%s>",
				name, top.prod.Model, top.name)}
		}
		childProd, ok = e.plan.schema.Production(name)
		if !ok {
			return &RunError{Msg: fmt.Sprintf("element <%s> is not declared in the DTD", name)}
		}
		top.memoName, top.memoFrom, top.memoNext, top.memoProd = name, prevState, next, childProd
	}
	top.state = next

	child := e.pushFrame()
	top = &e.frames[len(e.frames)-2] // pushFrame may have moved the stack
	child.prod = childProd
	child.state = childProd.Auto.Start()
	child.name = name

	// Inherited sinks.
	if top.copying {
		child.copying = true
		if err := e.w.StartElement(name); err != nil {
			return err
		}
	}
	for _, c := range top.captures {
		n := e.newNode()
		n.Name = name
		c.node.Kids = append(c.node.Kids, n)
		e.account(c.owner, int64(2*len(name)+5))
		child.captures = append(child.captures, capRef{node: n, owner: c.owner})
	}
	for _, fp := range top.fills {
		if kid, ok := fp.tree.kids[name]; ok {
			n := e.newNode()
			n.Name = name
			fp.parent.Kids = append(fp.parent.Kids, n)
			e.account(fp.owner, int64(2*len(name)+5))
			if kid.mark {
				child.captures = append(child.captures, capRef{node: n, owner: fp.owner})
			} else {
				child.fills = append(child.fills, fillPos{tree: kid, parent: n, owner: fp.owner})
			}
		}
	}
	child.accs = append(child.accs, top.accs...)
	for _, wp := range top.watch {
		spec := wp.spec()
		if spec.path[wp.pathIdx] != name {
			continue
		}
		if wp.pathIdx+1 == len(spec.path) {
			if spec.kind == wExists {
				// Existence is established by the opening tag: the scan at
				// index i sees label(t_i).
				wp.flags()[wp.specIdx] = true
				continue
			}
			acc := &valueAcc{spec: spec, flags: wp.flags(), idx: wp.specIdx}
			child.accs = append(child.accs, acc)
			child.ownAccs = append(child.ownAccs, acc)
		} else {
			child.watch = append(child.watch, watchPos{
				scope: wp.scope, simple: wp.simple, specIdx: wp.specIdx, pathIdx: wp.pathIdx + 1})
		}
	}

	// Scope handler scan for this child.
	if top.scope != nil {
		if err := e.scanHandlers(top.scope, name, prevState, next, child); err != nil {
			return err
		}
	}
	return nil
}

// scanHandlers performs the per-child scan of the handler list ζ in order
// (Section 3.2 semantics). The scan at index i is logically positioned
// after child t_i has been read completely, so a newly-true on-first
// handler normally defers to the end of the current child's subtree (its
// punctuation event may have been triggered by the very child whose
// content its body reads, e.g. the year loop of F1'). The one exception:
// an on-first handler that precedes a firing on-handler in ζ must emit its
// output before the on-handler streams the child, so it fires immediately.
// Its buffers then reflect the children before t_i; core.CheckSafety
// refuses such a handler if it reads more of t_i than its start tag.
func (e *engine) scanHandlers(rt *scopeRT, name string, prevState, newState int, child *frame) error {
	spec := rt.spec
	if spec.prod.Mixed {
		// All on-first handlers of mixed scopes fire at the closing tag.
		if i, ok := spec.onByName[name]; ok {
			return e.fireOn(spec.handlers[i], child, name)
		}
		return nil
	}
	onIdx, hasOn := spec.onByName[name]
	for i, h := range spec.handlers {
		switch h.kind {
		case hOnFirst:
			if rt.fired[i] || !h.pastTable[newState] || h.pastTable[prevState] {
				continue
			}
			rt.fired[i] = true
			if !hasOn || i > onIdx {
				child.deferred = append(child.deferred, deferredExec{h: h, rt: rt})
				continue
			}
			if err := e.runExec(h.body, &execEnv{eng: e}); err != nil {
				return err
			}
		case hOn:
			if !hasOn || i != onIdx {
				continue
			}
			if err := e.fireOn(h, child, name); err != nil {
				return err
			}
		}
	}
	return nil
}

// fireOn starts an on-handler on the child frame.
func (e *engine) fireOn(h *handlerSpec, child *frame, name string) error {
	if h.child != nil {
		crt := e.newScopeRT(h.child, name)
		return e.attachScope(child, crt)
	}
	return e.fireSimple(h.simple, child, name)
}

// fireSimple starts a simple on-handler on the child frame: emit the
// prefix, decide the guarded stream-copy, install the handler's watchers.
func (e *engine) fireSimple(sp *simpleSpec, child *frame, name string) error {
	rt := &simpleRT{spec: sp, flags: make([]bool, len(sp.watchers))}
	child.simple = rt
	env := &execEnv{eng: e, simple: rt}
	for _, p := range sp.prefix {
		if err := e.runExec(p, env); err != nil {
			return err
		}
	}
	if sp.copySub {
		doCopy := true
		if sp.copyCond != nil {
			var err error
			doCopy, err = e.evalCond(sp.copyCond, env)
			if err != nil {
				return err
			}
		}
		if doCopy {
			child.copying = true
			if err := e.w.StartElement(name); err != nil {
				return err
			}
		}
	}
	for i := range sp.watchers {
		child.watch = append(child.watch, watchPos{simple: rt, specIdx: i})
	}
	return nil
}

// textBytes handles one character-data event, the engine's one text
// path. The bytes are borrowed — from a scan they are only valid for
// the current batch window — so every retention point (buffer captures
// and value accumulators) copies here; the write-through path
// (w.TextBytes) and the whitespace check consume the bytes without
// copying.
func (e *engine) textBytes(data []byte) error {
	e.tokens++
	top := &e.frames[len(e.frames)-1]
	if !top.prod.Mixed && top.prod.Name != dtd.DocumentVar && !allXMLSpaceBytes(data) {
		return &RunError{Msg: fmt.Sprintf("character data not allowed inside <%s>", top.name)}
	}
	if top.copying {
		if err := e.w.TextBytes(data); err != nil {
			return err
		}
	}
	if len(top.captures) > 0 {
		txt := e.carveText(data) // one slab copy, shared by every capture
		for _, c := range top.captures {
			if k := len(c.node.Kids); k > 0 && c.node.Kids[k-1].IsText() {
				c.node.Kids[k-1].Text += txt
			} else {
				n := e.newNode()
				n.Text = txt
				c.node.Kids = append(c.node.Kids, n)
			}
			e.account(c.owner, int64(len(data)))
		}
	}
	for _, a := range top.accs {
		a.sb.Write(data)
	}
	return nil
}

// EndElement implements sax.Handler.
func (e *engine) EndElement(name string) error {
	e.tokens++
	top := &e.frames[len(e.frames)-1]
	if !top.prod.Auto.Accepting(top.state) {
		return &RunError{Msg: fmt.Sprintf("element <%s> closed with incomplete content (model %s)",
			name, top.prod.Model)}
	}
	for _, a := range top.ownAccs {
		a.finalize()
	}
	if top.copying {
		if err := e.w.EndElement(name); err != nil {
			return err
		}
	}
	if top.simple != nil {
		env := &execEnv{eng: e, simple: top.simple}
		for _, p := range top.simple.spec.suffix {
			if err := e.runExec(p, env); err != nil {
				return err
			}
		}
	}
	// The child's own scope closes first (its end-of-scope on-first
	// handlers run), then the parent's handlers deferred to this child.
	if top.scope != nil {
		if err := e.closeScope(top); err != nil {
			return err
		}
	}
	for _, d := range top.deferred {
		if err := e.runExec(d.h.body, &execEnv{eng: e}); err != nil {
			return err
		}
	}
	e.frames = e.frames[:len(e.frames)-1]
	return nil
}

// closeScope performs the i = n+1 scan (unfired on-first handlers fire in
// list order) and frees the scope's buffer.
func (e *engine) closeScope(f *frame) error {
	rt := f.scope
	for i, h := range rt.spec.handlers {
		if h.kind == hOnFirst && !rt.fired[i] {
			rt.fired[i] = true
			if err := e.runExec(h.body, &execEnv{eng: e}); err != nil {
				return err
			}
		}
	}
	e.curBytes -= rt.bytes
	if rt.bufRoot != nil && len(e.joins) > 0 {
		e.dropJoins()
	}
	if f.prevInst != nil {
		e.inst[f.scopeVar] = f.prevInst
	} else {
		delete(e.inst, f.scopeVar)
	}
	return nil
}

func (a *valueAcc) finalize() {
	switch a.spec.kind {
	case wExists:
		a.flags[a.idx] = true
	case wCmp:
		v, ok := makeCmpVal(a.sb.String(), a.spec.scale)
		if !ok {
			return
		}
		rc := a.spec.rhsCmp
		l, r := &v, &rc
		if a.spec.flip {
			l, r = &rc, &v
		}
		if compareVals(l, a.spec.op, r) {
			a.flags[a.idx] = true
		}
	}
}

// --- Program execution over buffers -------------------------------------

// varBind is one loop-variable binding. Exec programs bind at most a
// handful of nested loop variables, so bindings live in a small slice
// scanned backwards (innermost first) instead of a map — a join loop
// binding its variable once per buffered item must not pay a map
// assign/delete per iteration.
type varBind struct {
	name string
	node *bufNode
}

type execEnv struct {
	eng    *engine
	vars   []varBind
	simple *simpleRT
}

// resolve maps a variable to the buffered node it denotes.
func (env *execEnv) resolve(v string) (*bufNode, error) {
	for i := len(env.vars) - 1; i >= 0; i-- {
		if env.vars[i].name == v {
			return env.vars[i].node, nil
		}
	}
	if rt, ok := env.eng.inst[v]; ok {
		if rt.bufRoot == nil {
			return nil, &RunError{Msg: "no buffer allocated for variable " + v}
		}
		return rt.bufRoot, nil
	}
	return nil, &RunError{Msg: "unbound variable " + v}
}

func (e *engine) runExec(p *execProg, env *execEnv) error {
	switch p.kind {
	case eSeq:
		for _, it := range p.items {
			if err := e.runExec(it, env); err != nil {
				return err
			}
		}
		return nil
	case eStr:
		return e.w.Raw(p.str)
	case eVarOut:
		n, err := env.resolve(p.varName)
		if err != nil {
			return err
		}
		if n.Name == dtd.DocumentVar {
			for _, k := range n.Kids {
				if err := k.Serialize(e.w); err != nil {
					return err
				}
			}
			return nil
		}
		return n.Serialize(e.w)
	case eFor:
		src, err := env.resolve(p.src)
		if err != nil {
			return err
		}
		if p.join != nil && p.join.strategy != joinNested {
			return e.runJoin(p, src, env)
		}
		return e.runLoop(p, src, env)
	case eIf:
		ok, err := e.evalCond(p.cond, env)
		if err != nil {
			return err
		}
		if ok {
			return e.runExec(p.then, env)
		}
		return nil
	default:
		return &RunError{Msg: "unknown exec node"}
	}
}

// runLoop runs a for-loop over every item of src.
func (e *engine) runLoop(p *execProg, src *bufNode, env *execEnv) error {
	for _, kid := range src.Kids {
		if kid.Name != p.step {
			continue
		}
		if err := e.runIteration(p, kid, env); err != nil {
			return err
		}
	}
	return nil
}

// runIteration runs a for-loop's body with its variable bound to item.
func (e *engine) runIteration(p *execProg, item *bufNode, env *execEnv) error {
	mark := len(env.vars)
	env.vars = append(env.vars, varBind{name: p.loopVar, node: item})
	err := e.runExec(p.body, env)
	env.vars = env.vars[:mark]
	return err
}

func (e *engine) evalCond(c *condSpec, env *execEnv) (bool, error) {
	switch c.kind {
	case cTrue:
		return true, nil
	case cAnd:
		l, err := e.evalCond(c.l, env)
		if err != nil || !l {
			return false, err
		}
		return e.evalCond(c.r, env)
	case cOr:
		l, err := e.evalCond(c.l, env)
		if err != nil || l {
			return l, err
		}
		return e.evalCond(c.r, env)
	case cNot:
		x, err := e.evalCond(c.x, env)
		return !x, err
	case cAtom:
		return e.evalAtom(c.atom, env)
	default:
		return false, &RunError{Msg: "unknown condition node"}
	}
}

func (e *engine) evalAtom(a *atomSpec, env *execEnv) (bool, error) {
	if a.flag != nil {
		var flags []bool
		if a.flag.scopeVar == "" {
			if env.simple == nil {
				return false, &RunError{Msg: "simple-handler flag read outside simple handler"}
			}
			flags = env.simple.flags
		} else {
			rt, ok := e.inst[a.flag.scopeVar]
			if !ok {
				return false, &RunError{Msg: "flag read for inactive scope " + a.flag.scopeVar}
			}
			flags = rt.flags
		}
		v := flags[a.flag.idx]
		if a.flag.neg {
			v = !v
		}
		return v, nil
	}
	if a.exists != nil {
		nodes, err := e.navNodes(a.exists, env)
		if err != nil {
			return false, err
		}
		found := len(nodes) > 0
		e.selScratch = nodes[:0]
		return found != a.neg, nil
	}
	// General comparisons are existential: the atom holds if any lhs/rhs
	// value pair satisfies the operator. Each side is parsed once into
	// the engine's value scratch, so a pair comparison never re-parses.
	if a.lhs.isConst && a.rhs.isConst {
		return dom.CompareValues(a.lhs.constVal, a.op, a.rhs.constVal), nil
	}
	var err error
	e.rhsVals, err = e.operandValues(a.rhs, env, e.rhsVals[:0])
	if err != nil {
		return false, err
	}
	rs := e.rhsVals
	if a.lhs.isConst {
		l := a.lhs.constCmp
		for i := range rs {
			if compareVals(&l, a.op, &rs[i]) {
				return true, nil
			}
		}
		return false, nil
	}
	if len(rs) == 0 {
		return false, nil
	}
	e.lhsVals, err = e.operandValues(a.lhs, env, e.lhsVals[:0])
	if err != nil {
		return false, err
	}
	ls := e.lhsVals
	for i := range ls {
		for j := range rs {
			if compareVals(&ls[i], a.op, &rs[j]) {
				return true, nil
			}
		}
	}
	return false, nil
}

// cmpVal is one comparison operand value, parsed once: its string form
// and, when it has one, its numeric form. A scaled value (arithmetic in
// the query, e.g. euro conversion) is numeric by construction and
// formats its string form lazily — only the rare numeric-vs-non-numeric
// pair ever needs it.
type cmpVal struct {
	str    string
	num    float64
	isNum  bool
	scaled bool // str not yet formatted from num
}

// makeCmpVal parses one operand value. With a non-zero scale, values
// that do not parse as numbers contribute nothing under arithmetic and
// report ok == false.
func makeCmpVal(s string, scale float64) (cmpVal, bool) {
	f, isNum := dom.ParseNumber(s)
	if scale != 0 {
		if !isNum {
			return cmpVal{}, false
		}
		return cmpVal{num: scale * f, isNum: true, scaled: true}, true
	}
	return cmpVal{str: s, num: f, isNum: isNum}, true
}

// text returns the value's string form, formatting a scaled number on
// first use. FormatFloat with precision -1 round-trips exactly, so the
// numeric and string forms always agree.
func (v *cmpVal) text() string {
	if v.scaled {
		v.str = strconv.FormatFloat(v.num, 'f', -1, 64)
		v.scaled = false
	}
	return v.str
}

// compareVals applies the operator to a parsed pair: numerically when
// both sides are numbers, as strings otherwise — exactly
// dom.CompareValues, minus the per-pair re-parsing.
func compareVals(l *cmpVal, op xq.RelOp, r *cmpVal) bool {
	if l.isNum && r.isNum {
		return dom.CompareNumbers(l.num, op, r.num)
	}
	return dom.CompareValues(l.text(), op, r.text())
}

// navNodes selects the operand's node sequence into the engine's borrowed
// selection scratch. The caller must return the slice via
// e.selScratch = nodes[:0] before the next selection runs.
func (e *engine) navNodes(o *navOperand, env *execEnv) ([]*bufNode, error) {
	n, err := env.resolve(o.varName)
	if err != nil {
		return nil, err
	}
	out := e.selScratch[:0]
	e.selScratch = nil // nested selection must not share the backing array
	return n.Select(o.path, out), nil
}

// operandValues appends an operand's parsed value sequence to dst.
func (e *engine) operandValues(o *navOperand, env *execEnv, dst []cmpVal) ([]cmpVal, error) {
	if o.isConst {
		return append(dst, o.constCmp), nil
	}
	root, err := env.resolve(o.varName)
	if err != nil {
		return dst, err
	}
	nodes := root.Select(o.path, e.selScratch[:0])
	for _, n := range nodes {
		if v, ok := makeCmpVal(n.StringValue(), o.scale); ok {
			dst = append(dst, v)
		}
	}
	e.selScratch = nodes[:0]
	return dst, nil
}

func allXMLSpaceBytes(s []byte) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}
