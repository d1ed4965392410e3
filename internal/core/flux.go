// Package core implements the FluX query language and the paper's primary
// contribution: the schema-based scheduling algorithm that rewrites
// normalized XQuery⁻ queries into equivalent, safe FluX queries that
// minimize buffering (paper Sections 3.2, 3.3, and 4.2).
package core

import (
	"fmt"
	"sort"
	"strings"

	"flux/internal/xq"
)

// Flux is a FluX expression (Definition 3.3): either a simple XQuery⁻
// expression or a process-stream expression.
type Flux interface {
	isFlux()
}

// Simple wraps a simple XQuery⁻ expression (Section 3.2): a sequence
// α β γ of fixed strings and conditional strings with at most one
// {$u} / {if χ then {$u}} in the middle.
type Simple struct {
	Expr xq.Expr
}

// PS is a process-stream expression { ps Var: ζ } with an ordered handler
// list ζ.
type PS struct {
	Var      string
	Handlers []Handler
}

func (*Simple) isFlux() {}
func (*PS) isFlux()     {}

// Handler is an event handler in a process-stream expression.
type Handler interface {
	isHandler()
}

// OnFirst is "on-first past(S) return α": α is executed the first time
// the DTD implies no symbol of Past can occur anymore among the children
// of the stream variable (or at the closing tag if that never happens
// earlier). Star records that the set was written past(*) = symb($y).
type OnFirst struct {
	Past []string // sorted
	Star bool
	Body xq.Expr
}

// On is "on a as $x return Q": Q runs for each child named Name, with Var
// bound to it.
type On struct {
	Name string
	Var  string
	Body Flux
}

func (*OnFirst) isHandler() {}
func (*On) isHandler()      {}

// HSymb returns hsymb(ζ), the set of handler symbols of a handler list
// (Section 4.2), sorted.
func HSymb(handlers []Handler) []string {
	set := make(map[string]bool)
	for _, h := range handlers {
		switch h := h.(type) {
		case *On:
			set[h.Name] = true
		case *OnFirst:
			for _, s := range h.Past {
				set[s] = true
			}
		}
	}
	return sortedSet(set)
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Dependencies computes dependencies($y, α) (Section 3.3): the first steps
// of condition paths rooted at $y plus the first steps of for-loops
// ranging over $y, anywhere inside α. The result is sorted.
func Dependencies(y string, e xq.Expr) []string {
	set := make(map[string]bool)
	eachRead(e, func(v string, path xq.Path, _ bool) {
		if v == y && len(path) > 0 {
			set[path[0]] = true
		}
	})
	return sortedSet(set)
}

// eachRead calls f for every path e reads: loop ranges and comparison
// operands need the value (value = true), existence tests only the
// element's start tag.
func eachRead(e xq.Expr, f func(v string, path xq.Path, value bool)) {
	var cond func(xq.Cond)
	cond = func(c xq.Cond) {
		switch c := c.(type) {
		case *xq.And:
			cond(c.L)
			cond(c.R)
		case *xq.Or:
			cond(c.L)
			cond(c.R)
		case *xq.Not:
			cond(c.X)
		case *xq.Exists:
			f(c.Var, c.Path, false)
		case *xq.Cmp:
			for _, o := range []xq.Operand{c.L, c.R} {
				if o.Kind == xq.PathOperand {
					f(o.Var, o.Path, true)
				}
			}
		}
	}
	xq.Walk(e, func(x xq.Expr) {
		switch x := x.(type) {
		case *xq.For:
			f(x.Src, x.Path, true)
			cond(x.Where)
		case *xq.If:
			cond(x.Cond)
		}
	})
}

// IsSimple reports whether e is a simple expression per Section 3.2,
// assuming e is in normal form (conditional bodies are strings or {$u}).
// When simple with a {$u} / {if χ then {$u}} part, the bound variable u is
// returned.
func IsSimple(e xq.Expr) (u string, ok bool) {
	items := xq.Items(e)
	sawVar := false
	for _, it := range items {
		var this string // variable output by this item, if any
		switch it := it.(type) {
		case *xq.Str:
		case *xq.VarOut:
			this = it.Var
		case *xq.If:
			switch t := it.Then.(type) {
			case *xq.Str:
			case *xq.VarOut:
				this = t.Var
			default:
				return "", false
			}
		default:
			return "", false
		}
		if this != "" {
			if sawVar {
				return "", false // at most one {$u}
			}
			sawVar = true
			u = this
		}
	}
	if !sawVar {
		return "", true
	}
	// "no atomic condition that occurs in αβ contains the variable $u":
	// check every condition up to and including the {$u} item.
	for _, it := range items {
		var cond xq.Cond
		var isU bool
		switch it := it.(type) {
		case *xq.If:
			cond = it.Cond
			if v, okv := it.Then.(*xq.VarOut); okv && v.Var == u {
				isU = true
			}
		case *xq.VarOut:
			isU = it.Var == u
		}
		for _, cp := range xq.CondPaths(cond, nil) {
			if cp.Var == u {
				return "", false
			}
		}
		if isU {
			break
		}
	}
	return u, true
}

// Print renders a FluX expression in the paper's surface syntax.
func Print(f Flux) string {
	var b strings.Builder
	printFlux(&b, f)
	return b.String()
}

func printFlux(b *strings.Builder, f Flux) {
	switch f := f.(type) {
	case *Simple:
		b.WriteString(xq.Print(f.Expr))
	case *PS:
		fmt.Fprintf(b, "{ ps %s:", f.Var)
		for i, h := range f.Handlers {
			if i > 0 {
				b.WriteByte(';')
			}
			switch h := h.(type) {
			case *OnFirst:
				if h.Star {
					b.WriteString(" on-first past(*) return ")
				} else {
					fmt.Fprintf(b, " on-first past(%s) return ", strings.Join(h.Past, ","))
				}
				b.WriteString(xq.Print(h.Body))
			case *On:
				fmt.Fprintf(b, " on %s as %s return ", h.Name, h.Var)
				printFlux(b, h.Body)
			}
		}
		b.WriteString(" }")
	}
}

// Indent renders a FluX expression with one handler per line, for tool
// output.
func Indent(f Flux) string {
	var b strings.Builder
	indentFlux(&b, f, 0)
	return b.String()
}

func indentFlux(b *strings.Builder, f Flux, depth int) {
	pad := strings.Repeat("  ", depth)
	switch f := f.(type) {
	case *Simple:
		b.WriteString(pad + xq.Print(f.Expr) + "\n")
	case *PS:
		fmt.Fprintf(b, "%s{ ps %s:\n", pad, f.Var)
		for i, h := range f.Handlers {
			sep := ";"
			if i == len(f.Handlers)-1 {
				sep = ""
			}
			switch h := h.(type) {
			case *OnFirst:
				set := "*"
				if !h.Star {
					set = strings.Join(h.Past, ",")
				}
				fmt.Fprintf(b, "%s  on-first past(%s) return %s%s\n", pad, set, xq.Print(h.Body), sep)
			case *On:
				fmt.Fprintf(b, "%s  on %s as %s return\n", pad, h.Name, h.Var)
				indentFlux(b, h.Body, depth+2)
				if sep == ";" {
					b.WriteString(pad + "  ;\n")
				}
			}
		}
		b.WriteString(pad + "}\n")
	}
}
