package core

import (
	"fmt"
	"sort"

	"flux/internal/dtd"
	"flux/internal/xq"
)

// RewriteError reports a query the scheduler cannot handle.
type RewriteError struct {
	Msg string
}

// Error implements error.
func (e *RewriteError) Error() string { return "core: rewrite: " + e.Msg }

// Schedule is the full compilation pipeline from a parsed XQuery⁻ query to
// a safe FluX query: Figure 1 normalization, Section 7 cardinality-based
// loop merging, then the Figure 2 rewrite algorithm. The result is checked
// against the safety rule (CheckSafety) before being returned.
func Schedule(schema *dtd.Schema, q xq.Expr) (Flux, error) {
	n := xq.Normalize(q)
	n = xq.MergeLoops(n, schema)
	f, err := Rewrite(schema, n)
	if err != nil {
		return nil, err
	}
	if err := CheckSafety(schema, f); err != nil {
		return nil, fmt.Errorf("core: internal error: rewrite produced an unsafe query: %w", err)
	}
	return f, nil
}

// Rewrite implements "rewrite($ROOT, ∅, Q)" of Figure 2 for a normalized
// query Q. Free variables other than $ROOT are rejected.
func Rewrite(schema *dtd.Schema, q xq.Expr) (Flux, error) {
	if !xq.IsNormalForm(q) {
		return nil, &RewriteError{Msg: "query is not in normal form"}
	}
	for _, v := range xq.FreeVars(q) {
		if v != xq.RootVar {
			return nil, &RewriteError{Msg: fmt.Sprintf("free variable %s (only %s may be free)", v, xq.RootVar)}
		}
	}
	rw := &rewriter{schema: schema}
	binding := map[string]string{xq.RootVar: dtd.DocumentVar}
	return rw.rewrite(xq.RootVar, nil, q, binding)
}

type rewriter struct {
	schema *dtd.Schema
}

// readsOpen reports whether α needs more of $x's child a than its start
// tag: a's value in a comparison, a path below a, or a loop over a. While
// an on a handler runs, a is open, so such a read is not complete; an
// existence test on $x/a alone is.
func readsOpen(x, a string, alpha xq.Expr) bool {
	open := false
	eachRead(alpha, func(v string, path xq.Path, value bool) {
		open = open || v == x && len(path) > 0 && path[0] == a && (value || len(path) > 1)
	})
	return open
}

// pastStar returns symb($y) for the element bound to a variable.
func (rw *rewriter) pastStar(elem string) []string {
	prod, ok := rw.schema.Production(elem)
	if !ok {
		return nil
	}
	return append([]string(nil), prod.Auto.Symbols()...)
}

func onFirst(past []string, star bool, body xq.Expr) *OnFirst {
	sorted := append([]string(nil), past...)
	sort.Strings(sorted)
	return &OnFirst{Past: sorted, Star: star, Body: body}
}

// rewrite is the function of Figure 2. parentVar is $x, prev the handlers
// that precede β's in $x's scope (their symbols are the algorithm's H),
// beta the normalized expression, binding the variable→element map for
// schema lookups.
func (rw *rewriter) rewrite(parentVar string, prev []Handler, beta xq.Expr, binding map[string]string) (Flux, error) {
	x := parentVar
	elem := binding[x]
	H := HSymb(prev)

	// Line 5: {$x} ⪯ β — the parent's own subtree is output somewhere.
	if xq.UsesVar(beta, x) {
		if _, simple := IsSimple(beta); simple && len(Dependencies(x, beta)) == 0 {
			return &Simple{Expr: beta}, nil // line 8
		}
		return &PS{Var: x, Handlers: []Handler{ // line 10
			onFirst(rw.pastStar(elem), true, beta),
		}}, nil
	}

	// Line 14: sequence β1 β2.
	if items := xq.Items(beta); len(items) >= 2 {
		first, err := rw.rewrite(x, prev, items[0], binding)
		if err != nil {
			return nil, err
		}
		ps1, ok := first.(*PS)
		if !ok {
			return nil, &RewriteError{Msg: fmt.Sprintf("sequence head did not rewrite to a process-stream expression: %s", xq.Print(items[0]))}
		}
		prev2 := append(append([]Handler{}, prev...), ps1.Handlers...)
		rest, err := rw.rewrite(x, prev2, xq.NewSeq(items[1:]...), binding)
		if err != nil {
			return nil, err
		}
		ps2, ok := rest.(*PS)
		if !ok {
			return nil, &RewriteError{Msg: fmt.Sprintf("sequence tail did not rewrite to a process-stream expression: %s", xq.Print(xq.NewSeq(items[1:]...)))}
		}
		return &PS{Var: x, Handlers: append(append([]Handler{}, ps1.Handlers...), ps2.Handlers...)}, nil
	}

	// Line 22: simple β (a string, conditional string, or empty).
	if _, simple := IsSimple(beta); simple {
		past := union(Dependencies(x, beta), H)
		return &PS{Var: x, Handlers: []Handler{onFirst(past, false, beta)}}, nil
	}

	// Line 27: β = { for $y in $z/a return α }.
	if f, ok := beta.(*xq.For); ok {
		if len(f.Path) != 1 || f.Where != nil {
			return nil, &RewriteError{Msg: "for-loop not normalized: " + xq.Print(f)}
		}
		a := f.Path[0]
		deps := union(Dependencies(x, f.Body), H)
		if f.Src != x { // line 31: a is a step of another scope, so no order applies
			return &PS{Var: x, Handlers: []Handler{onFirst(deps, false, beta)}}, nil
		}
		// Line 30. A self-dependency b = a is ordered (Ord(a, a) holds
		// for a singleton a) only if no earlier on a handler holds a open
		// and neither the body nor an earlier on-first handler, which an
		// on a handler makes fire at a's start tag, reads more of a than
		// that tag.
		reads, heldOpen := []xq.Expr{f.Body}, false
		for _, h := range prev {
			switch h := h.(type) {
			case *OnFirst:
				reads = append(reads, h.Body)
			case *On:
				heldOpen = heldOpen || h.Name == a
			}
		}
		var X []string
		for _, b := range deps {
			if !rw.schema.Ord(elem, b, a) || b == a && (heldOpen || readsOpen(x, a, xq.NewSeq(reads...))) {
				X = append(X, b)
			}
		}
		switch {
		case len(X) != 0: // line 33
			return &PS{Var: x, Handlers: []Handler{onFirst(union(X, []string{a}), false, beta)}}, nil
		default: // lines 36–39
			inner := extendBinding(binding, f.Var, a)
			body, err := rw.rewrite(f.Var, nil, f.Body, inner)
			if err != nil {
				return nil, err
			}
			return &PS{Var: x, Handlers: []Handler{&On{Name: a, Var: f.Var, Body: body}}}, nil
		}
	}

	return nil, &RewriteError{Msg: fmt.Sprintf("unexpected expression form %T: %s", beta, xq.Print(beta))}
}

func extendBinding(binding map[string]string, v, elem string) map[string]string {
	out := make(map[string]string, len(binding)+1)
	for k, val := range binding {
		out[k] = val
	}
	out[v] = elem
	return out
}

// union merges sorted string sets.
func union(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	return sortedSet(set)
}
