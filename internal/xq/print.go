package xq

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders e in canonical XQuery⁻ surface syntax (one line). Parsing
// the result yields an equal AST.
func Print(e Expr) string {
	var b strings.Builder
	printExpr(&b, e)
	return b.String()
}

func printExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case nil:
	case *Seq:
		for i, it := range e.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			printExpr(b, it)
		}
	case *Str:
		b.WriteString(e.S)
	case *VarOut:
		fmt.Fprintf(b, "{ %s }", e.Var)
	case *PathOut:
		fmt.Fprintf(b, "{ %s/%s }", e.Var, e.Path)
	case *If:
		fmt.Fprintf(b, "{ if %s then ", PrintCond(e.Cond))
		printExpr(b, e.Then)
		b.WriteString(" }")
	case *For:
		fmt.Fprintf(b, "{ for %s in %s/%s", e.Var, e.Src, e.Path)
		if e.Where != nil {
			fmt.Fprintf(b, " where %s", PrintCond(e.Where))
		}
		b.WriteString(" return ")
		printExpr(b, e.Body)
		b.WriteString(" }")
	default:
		panic("xq: unknown expression type in Print")
	}
}

// PrintCond renders a condition in canonical syntax.
func PrintCond(c Cond) string {
	var b strings.Builder
	printCond(&b, c, 0)
	return b.String()
}

// precedence: or=0, and=1, unary=2
func printCond(b *strings.Builder, c Cond, prec int) {
	switch c := c.(type) {
	case nil:
		b.WriteString("true")
	case True:
		b.WriteString("true")
	case *Or:
		if prec > 0 {
			b.WriteByte('(')
		}
		printCond(b, c.L, 0)
		b.WriteString(" or ")
		printCond(b, c.R, 1)
		if prec > 0 {
			b.WriteByte(')')
		}
	case *And:
		if prec > 1 {
			b.WriteByte('(')
		}
		printCond(b, c.L, 1)
		b.WriteString(" and ")
		printCond(b, c.R, 2)
		if prec > 1 {
			b.WriteByte(')')
		}
	case *Not:
		b.WriteString("not ")
		printCond(b, c.X, 2)
	case *Exists:
		if c.Neg {
			fmt.Fprintf(b, "empty(%s/%s)", c.Var, c.Path)
		} else {
			fmt.Fprintf(b, "exists %s/%s", c.Var, c.Path)
		}
	case *Cmp:
		printOperand(b, c.L)
		fmt.Fprintf(b, " %s ", c.Op)
		printOperand(b, c.R)
	default:
		panic("xq: unknown condition type in PrintCond")
	}
}

func printOperand(b *strings.Builder, o Operand) {
	if o.Kind == ConstOperand {
		switch {
		case isNumber(o.Const):
			b.WriteString(o.Const)
		case strings.Contains(o.Const, "'"):
			fmt.Fprintf(b, `"%s"`, o.Const)
		default:
			fmt.Fprintf(b, "'%s'", o.Const)
		}
		return
	}
	// The unparenthesized form parses on both sides of a comparison; a
	// leading '(' would open a parenthesized condition instead.
	if o.Scale != 0 {
		fmt.Fprintf(b, "%s * %s/%s", strconv.FormatFloat(o.Scale, 'f', -1, 64), o.Var, o.Path)
		return
	}
	fmt.Fprintf(b, "%s/%s", o.Var, o.Path)
}

// isNumber reports whether s reads back as a number operand: the
// parser's number lexeme (digits, '.', '-') that also parses as a float.
func isNumber(s string) bool {
	if strings.Trim(s, "0123456789.-") != "" {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
