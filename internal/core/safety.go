package core

import (
	"fmt"

	"flux/internal/dtd"
	"flux/internal/xq"
)

// SafetyError reports a violation of the safety rule: a handler that may
// run before the data it reads is complete, or that outputs data it may
// not (Definition 3.6).
type SafetyError struct {
	Var string // the process-stream variable whose scope is unsafe
	Msg string
}

// Error implements error.
func (e *SafetyError) Error() string {
	return fmt.Sprintf("core: unsafe FluX query at ps %s: %s", e.Var, e.Msg)
}

// CheckSafety verifies that f is a safe FluX query w.r.t. the schema. It
// is the one rule for when a handler's data is complete: the scheduler
// (Rewrite) plans against it, and the engine refuses every query it
// rejects. A top-level simple expression is judged in the process-stream
// form the engine runs (LiftTopLevelSimple).
//
// Definition 3.6 bounds the paths rooted at a handler's own
// process-stream variable. The rule generalizes its two dependency bullets
// to paths rooted at any enclosing scope. Walking the scope chain from
// the path's variable, the path either diverges from the chain — then
// every match closed before the chain's next element opened, which needs
// Ord(step, edge) — or it follows the chain through at-most-once steps
// into the current scope. There its next step must be past when the
// handler runs: ordered before the on-handler's element, or covered by
// the on-first handler's past set. A step that cannot occur under its
// element is vacuously complete. A path that ends on the open chain names
// an element still being read: only its existence is settled. The output
// bullets of Definition 3.6 apply unchanged.
func CheckSafety(schema *dtd.Schema, f Flux) error {
	ps, ok := LiftTopLevelSimple(f, schema.Root).(*PS)
	if !ok {
		return &SafetyError{Var: xq.RootVar, Msg: "top-level expression is not a process-stream expression"}
	}
	c := &safetyChecker{schema: schema}
	return c.scope(ps, xq.RootVar, dtd.DocumentVar)
}

// LiftTopLevelSimple wraps a top-level simple expression (a legal FluX
// query, e.g. the stream-copy `<all> {$ROOT} </all>`) into the equivalent
// process-stream form the engine runs: the prefix fires at document
// start, the {$ROOT} part becomes a stream-copying on-handler for the
// document element, and the suffix fires at document end. Other
// expressions are returned unchanged.
func LiftTopLevelSimple(f Flux, rootElem string) Flux {
	s, ok := f.(*Simple)
	if !ok {
		return f
	}
	var prefix, suffix []xq.Expr
	var copyGuard xq.Cond
	hasCopy := false
	for _, it := range xq.Items(s.Expr) {
		switch it := it.(type) {
		case *xq.VarOut:
			if it.Var == xq.RootVar {
				hasCopy = true
				continue
			}
		case *xq.If:
			if v, ok := it.Then.(*xq.VarOut); ok && v.Var == xq.RootVar {
				hasCopy, copyGuard = true, it.Cond
				continue
			}
		}
		if hasCopy {
			suffix = append(suffix, it)
		} else {
			prefix = append(prefix, it)
		}
	}
	handlers := []Handler{
		&OnFirst{Past: nil, Body: xq.NewSeq(prefix...)},
	}
	if hasCopy {
		const v = "$%doc"
		var body xq.Expr = &xq.VarOut{Var: v}
		if copyGuard != nil {
			body = &xq.If{Cond: copyGuard, Then: body}
		}
		handlers = append(handlers, &On{Name: rootElem, Var: v, Body: &Simple{Expr: body}})
	}
	handlers = append(handlers, &OnFirst{Star: true, Body: xq.NewSeq(suffix...)})
	return &PS{Var: xq.RootVar, Handlers: handlers}
}

// link is one open scope of the chain from $ROOT to the checked handler.
type link struct {
	v    string
	prod *dtd.Production
	next string // element of the on-handler that opened the next link
}

type safetyChecker struct {
	schema *dtd.Schema
	chain  []link
	// The checked handler: on is an on-handler's element, past an
	// on-first handler's resolved past set, and later the elements of the
	// on handlers after it in ζ. An on-first handler runs before a later
	// on a handler streams a, so it may fire at a's start tag.
	on    string
	past  []string
	later map[string]bool
}

// scope checks the handlers of ps, the process-stream expression that an
// on v handler for elem (or the document, for $ROOT) runs.
func (c *safetyChecker) scope(ps *PS, v, elem string) error {
	if ps.Var != v {
		return &SafetyError{Var: ps.Var, Msg: fmt.Sprintf("unbound process-stream variable (the handler binds %s)", v)}
	}
	prod, ok := c.schema.Production(elem)
	if !ok {
		return &SafetyError{Var: v, Msg: fmt.Sprintf("no production for element %q", elem)}
	}
	c.chain = append(c.chain, link{v: v, prod: prod})
	defer func() { c.chain = c.chain[:len(c.chain)-1] }()
	for i, h := range ps.Handlers {
		switch h := h.(type) {
		case *OnFirst:
			c.on, c.past, c.later = "", h.Past, make(map[string]bool)
			if h.Star {
				c.past = prod.Auto.Symbols()
			}
			for _, g := range ps.Handlers[i+1:] {
				if g, ok := g.(*On); ok {
					c.later[g.Name] = true
				}
			}
			if err := c.reads(h.Body); err != nil {
				return err
			}
			// Whole-subtree outputs of free variables need the full scope
			// read, and only $v itself may be output (outputs of
			// loop-bound variables range over complete buffered nodes).
			free := make(map[string]bool)
			for _, z := range xq.FreeVars(h.Body) {
				free[z] = true
			}
			for _, z := range varsOutput(h.Body) {
				if !free[z] {
					continue
				}
				if z != v {
					return &SafetyError{Var: v, Msg: fmt.Sprintf(
						"on-first handler outputs %s, which is not the stream variable %s", z, v)}
				}
				for _, b := range prod.Auto.Symbols() {
					if !c.covered(prod, b) || c.later[b] {
						return &SafetyError{Var: v, Msg: fmt.Sprintf(
							"on-first past(%v) outputs {%s} but symbol %q may still arrive", c.past, z, b)}
					}
				}
			}
		case *On:
			switch body := h.Body.(type) {
			case *Simple:
				c.on, c.past, c.later = h.Name, nil, nil
				if err := c.reads(body.Expr); err != nil {
					return err
				}
				for _, u := range varsOutput(body.Expr) {
					if u != h.Var {
						return &SafetyError{Var: v, Msg: fmt.Sprintf(
							"simple on %s handler outputs %s, want only %s", h.Name, u, h.Var)}
					}
				}
			case *PS:
				c.chain[len(c.chain)-1].next = h.Name
				if err := c.scope(body, h.Var, h.Name); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// covered is Definition 3.6's test "b ∈ past or ∃a ∈ past: Ord(b, a)";
// a symbol that cannot occur under the element is vacuously covered.
func (c *safetyChecker) covered(prod *dtd.Production, b string) bool {
	if !prod.Auto.HasSymbol(b) {
		return true
	}
	for _, a := range c.past {
		if a == b || prod.Auto.Ord(b, a) {
			return true
		}
	}
	return false
}

// reads checks every path the checked handler's expression e reads.
func (c *safetyChecker) reads(e xq.Expr) error {
	var err error
	eachRead(e, func(v string, path xq.Path, value bool) {
		if err == nil {
			err = c.complete(v, path, value)
		}
	})
	return err
}

// complete reports an error unless the data at v/path is complete when
// the checked handler runs. needValue is false for existence tests.
func (c *safetyChecker) complete(v string, path xq.Path, needValue bool) error {
	i := len(c.chain) - 1
	for i >= 0 && c.chain[i].v != v {
		i--
	}
	if i < 0 {
		return nil // a loop variable or a simple handler's child: bound to complete data
	}
	cur := len(c.chain) - 1
	reject := func(format string, args ...any) error {
		return &SafetyError{Var: c.chain[cur].v, Msg: fmt.Sprintf(
			"data at %s/%s is not complete when the handler executes: %s", v, path, fmt.Sprintf(format, args...))}
	}
	k := 0
	for ; i < cur && k < len(path); i++ {
		l := c.chain[i]
		if path[k] != l.next {
			if !l.prod.Auto.Ord(path[k], l.next) {
				return reject("no order constraint Ord(%s,%s) under %s", path[k], l.next, l.v)
			}
			return nil // every match closed before the chain's next element opened
		}
		if !l.prod.Auto.AtMostOnce(l.next) {
			return reject("%s may repeat under %s, so later siblings could match", l.next, l.v)
		}
		k++
	}
	if k == len(path) {
		if needValue {
			return reject("the element itself is still open")
		}
		return nil // its start tag was seen; existence is settled
	}
	y, step := c.chain[cur], path[k]
	switch {
	case !y.prod.Auto.HasSymbol(step):
	case c.on == step || c.later[step]:
		// The element may be open while the handler runs; its start tag
		// settles existence, and later matches keep it true.
		if needValue || k < len(path)-1 {
			return reject("the element itself is still open")
		}
	case c.on != "":
		if !y.prod.Auto.Ord(step, c.on) {
			return reject("no order constraint Ord(%s,%s) under %s", step, c.on, y.v)
		}
	case !c.covered(y.prod, step):
		return reject("%s is not covered by the handler's past set %v", step, c.past)
	}
	return nil
}

// varsOutput returns the variables z with {$z} or {$z/π} occurring in e,
// sorted.
func varsOutput(e xq.Expr) []string {
	set := make(map[string]bool)
	xq.Walk(e, func(x xq.Expr) {
		switch x := x.(type) {
		case *xq.VarOut:
			set[x.Var] = true
		case *xq.PathOut:
			set[x.Var] = true
		}
	})
	return sortedSet(set)
}
