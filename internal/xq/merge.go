package xq

import (
	"flux/internal/dtd"
)

// This file implements the Section 7 algebraic optimizations that exploit
// cardinality constraints derived from the DTD:
//
//  1. loop merging — the paper's rewrite rule
//
//     { for $x in $r/a return α } { for $x' in $r/a return β }
//     ────────────────────────────────────────────────────────  (a ∈ ||≤1_$r)
//     { for $x in $r/a return α β[$x'↦$x] }
//
//  2. exact-once merging — the document element r occurs exactly once,
//     so two loops over it merge across the items γ between them, which
//     run once either way:
//
//     { for $x in $ROOT/r return α } γ { for $x' in $ROOT/r return β }
//     ──────────────────────────────────────────────────────────────────
//     { for $x in $ROOT/r return α γ β[$x'↦$x] }
//
//  3. nested loop re-binding — inside the body of {for $v in $z/a … }, a
//     loop {for $u in $z/a return β} ranges over the very node $v when a
//     occurs at most once among $z's children, so it collapses to
//     β[$u↦$v]. This is what lets the scheduler handle the XMark queries'
//     re-opened absolute paths (/site/… inside a person loop): after
//     re-binding, rewrite() discovers past(people, closed_auctions) at the
//     site level instead of giving up.
//
//  4. condition path re-binding — likewise, inside that body a condition
//     path $z/a/π denotes the nodes of $v/π. Re-bound, it is a dependency
//     of $v's scope that the scheduler sees and buffers once, instead of
//     a second read of $z's scope through the open element a.
//
// All preserve semantics: within one iteration of the outer loop the
// singleton cardinality means the two ranges are node-for-node identical.

// MergeLoops applies the cardinality optimizations to a normalized query
// until no rule applies. The variable→element binding needed to look up
// cardinality facts is inferred structurally ($ROOT ↦ #document, a loop
// over $y/a binds its variable to element a).
func MergeLoops(q Expr, schema *dtd.Schema) Expr {
	m := &merger{schema: schema}
	binding := map[string]string{RootVar: dtd.DocumentVar}
	q = m.rewrite(Copy(q), binding)
	m.rebindConds(q, binding, nil)
	return q
}

type merger struct {
	schema *dtd.Schema
}

func (m *merger) rewrite(e Expr, binding map[string]string) Expr {
	switch e := e.(type) {
	case nil, *Str, *VarOut, *PathOut:
		return e
	case *If:
		e.Then = m.rewrite(e.Then, binding)
		return e
	case *Seq:
		for i, it := range e.Items {
			e.Items[i] = m.rewrite(it, binding)
		}
		return NewSeq(m.mergeSiblings(e.Items, binding)...)
	case *For:
		inner := extend(binding, e.Var, e.Path[len(e.Path)-1])
		e.Body = m.rewrite(e.Body, inner)
		e.Body = m.rebindWithin(e, e.Body, inner)
		return e
	default:
		panic("xq: unknown expression type in MergeLoops")
	}
}

func extend(binding map[string]string, v, elem string) map[string]string {
	out := make(map[string]string, len(binding)+1)
	for k, val := range binding {
		out[k] = val
	}
	out[v] = elem
	return out
}

// singleton reports whether the step from variable src to child a is
// provably at-most-once under the schema.
func (m *merger) singleton(binding map[string]string, src, a string) bool {
	elem, ok := binding[src]
	if !ok {
		return false
	}
	return m.schema.AtMostOnce(elem, a)
}

// mergeSiblings fuses adjacent loops over the same singleton step, and
// any two over the document element (rule 2).
func (m *merger) mergeSiblings(items []Expr, binding map[string]string) []Expr {
	var out []Expr
next:
	for _, it := range items {
		if cur, ok := it.(*For); ok && len(cur.Path) == 1 && cur.Where == nil && m.singleton(binding, cur.Src, cur.Path[0]) {
			lo := len(out) - 1
			if binding[cur.Src] == dtd.DocumentVar && cur.Path[0] == m.schema.Root {
				lo = 0
			}
			for j := len(out) - 1; j >= max(lo, 0); j-- {
				if prev, ok := out[j].(*For); ok && prev.Src == cur.Src && len(prev.Path) == 1 &&
					prev.Path[0] == cur.Path[0] && prev.Where == nil {
					body := RenameVar(cur.Body, cur.Var, prev.Var)
					prev.Body = NewSeq(append(append([]Expr{prev.Body}, out[j+1:]...), body)...)
					out = out[:j+1]
					// The merged body may expose new pairs one level down, and
					// the moved items may re-range over prev's step.
					inner := extend(binding, prev.Var, prev.Path[0])
					prev.Body = NewSeq(m.mergeSiblings(Items(prev.Body), inner)...)
					prev.Body = m.rebindWithin(prev, prev.Body, inner)
					continue next
				}
			}
		}
		out = append(out, it)
	}
	return out
}

// rebindWithin replaces, anywhere inside body, loops that re-range over
// outer's singleton step from the same source variable.
func (m *merger) rebindWithin(outer *For, body Expr, binding map[string]string) Expr {
	if len(outer.Path) != 1 || !m.singleton(binding, outer.Src, outer.Path[0]) {
		return body
	}
	var visit func(e Expr) Expr
	visit = func(e Expr) Expr {
		switch e := e.(type) {
		case nil, *Str, *VarOut, *PathOut:
			return e
		case *If:
			e.Then = visit(e.Then)
			return e
		case *Seq:
			for i, it := range e.Items {
				e.Items[i] = visit(it)
			}
			return e
		case *For:
			if e.Src == outer.Src && len(e.Path) == 1 && e.Path[0] == outer.Path[0] && e.Where == nil {
				// β[$u ↦ $v], then keep simplifying inside the spliced body.
				return visit(RenameVar(e.Body, e.Var, outer.Var))
			}
			e.Body = visit(e.Body)
			return e
		default:
			panic("xq: unknown expression type in rebind")
		}
	}
	return visit(body)
}

// step is one singleton loop step: variable v ranges over src/a.
type step struct{ src, a string }

// rebindConds re-binds, in place, the condition paths of e through the
// enclosing singleton loops in via, repeatedly, so $z/a/b/π becomes $u/π
// inside { for $v in $z/a return … { for $u in $v/b … } }.
func (m *merger) rebindConds(e Expr, binding map[string]string, via map[step]string) {
	rebind := func(v string, p Path) (string, Path) {
		for len(p) > 1 && via[step{v, p[0]}] != "" {
			v, p = via[step{v, p[0]}], p[1:]
		}
		return v, p
	}
	switch e := e.(type) {
	case *Seq:
		for _, it := range e.Items {
			m.rebindConds(it, binding, via)
		}
	case *If:
		e.Cond = mapCondPaths(e.Cond, rebind)
		m.rebindConds(e.Then, binding, via)
	case *For:
		e.Where = mapCondPaths(e.Where, rebind)
		inner := make(map[step]string, len(via)+1)
		for k, u := range via {
			if k.src != e.Var && u != e.Var { // not shadowed by e.Var
				inner[k] = u
			}
		}
		if len(e.Path) == 1 && m.singleton(binding, e.Src, e.Path[0]) {
			inner[step{e.Src, e.Path[0]}] = e.Var
		}
		m.rebindConds(e.Body, extend(binding, e.Var, e.Path[len(e.Path)-1]), inner)
	}
}
