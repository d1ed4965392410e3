package xq

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseIntroQuery(t *testing.T) {
	// XMP Q3 from the paper's introduction.
	q := MustParse(`<results>
{ for $b in $ROOT/bib/book return
<result> { $b/title } { $b/author } </result> }
</results>`)
	items := Items(q)
	if len(items) != 3 {
		t.Fatalf("top level has %d items, want 3: %s", len(items), Print(q))
	}
	if s, ok := items[0].(*Str); !ok || s.S != "<results>" {
		t.Errorf("first item = %#v, want <results>", items[0])
	}
	f, ok := items[1].(*For)
	if !ok {
		t.Fatalf("second item is %T, want *For", items[1])
	}
	if f.Var != "$b" || f.Src != "$ROOT" || f.Path.String() != "bib/book" {
		t.Errorf("for = %+v", f)
	}
	body := Items(f.Body)
	if len(body) != 4 {
		t.Fatalf("for body has %d items, want 4: %s", len(body), Print(f.Body))
	}
	if p, ok := body[1].(*PathOut); !ok || p.Var != "$b" || p.Path.String() != "title" {
		t.Errorf("body[1] = %#v", body[1])
	}
}

func TestParseAbsolutePath(t *testing.T) {
	q := MustParse(`{ for $b in /site/people/person return { $b } }`)
	f := q.(*For)
	if f.Src != RootVar || f.Path.String() != "site/people/person" {
		t.Errorf("for = %+v", f)
	}
}

func TestParseConditions(t *testing.T) {
	cases := []struct{ in, want string }{
		{`$b/publisher = "Addison-Wesley" and $b/year > 1991`,
			`$b/publisher = 'Addison-Wesley' and $b/year > 1991`},
		{`$a/x = $b/y or not $a/z < 5`, `$a/x = $b/y or not $a/z < 5`},
		{`exists $x/a/b`, `exists $x/a/b`},
		{`empty($p/person_income)`, `empty($p/person_income)`},
		{`$p/profile/profile_income > (5000 * $o/initial)`,
			`$p/profile/profile_income > 5000 * $o/initial`},
		{`$p/a > 5000 * $o/b`, `$p/a > 5000 * $o/b`},
		{`0.5 * $v/d != $r/c`, `0.5 * $v/d != $r/c`},
		{`not 1000000 * $v/d = $r/c`, `not 1000000 * $v/d = $r/c`},
		{`$x/a = "it's"`, `$x/a = "it's"`},
		{`$x/a = '-'`, `$x/a = '-'`},
		{`true and $x/a != 'q'`, `true and $x/a != 'q'`},
		{`($x/a = 1 or $x/b = 2) and $x/c >= 3`, `($x/a = 1 or $x/b = 2) and $x/c >= 3`},
		{`$x/a <= 7`, `$x/a <= 7`},
	}
	for _, c := range cases {
		cond, err := ParseCond(c.in)
		if err != nil {
			t.Errorf("ParseCond(%q): %v", c.in, err)
			continue
		}
		if got := PrintCond(cond); got != c.want {
			t.Errorf("PrintCond(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`{ for $x in $y return {$x} }`,         // no path
		`{ for $x $y/a return {$x} }`,          // missing in
		`{ for $x in $y/a {$x} }`,              // missing return
		`{ $x`,                                 // unterminated
		`{ if $x/a then {$x}`,                  // unterminated
		`a } b`,                                // stray close... (tolerated? no: error)
		`{ for $x in $y/a where return {$x} }`, // empty condition
		`{ if $x/a = then {$x} }`,              // bad operand
		`{ if $x/a = 'x then {$x} }`,           // unterminated literal
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	queries := []string{
		`<results> { for $b in $ROOT/bib/book return <result> { $b/title } { $b/author } </result> } </results>`,
		`{ for $b in $ROOT/bib/book where $b/publisher = 'X' and $b/year > 1991 return <book> { $b/year } </book> }`,
		`{ if $x/a = 'v' then out }`,
		`{ $ROOT/bib }`,
		`hello world`,
		`{ for $p in $ROOT/site/people/person where empty($p/person_income) return { $p } }`,
	}
	for _, in := range queries {
		e1 := MustParse(in)
		p1 := Print(e1)
		e2, err := Parse(p1)
		if err != nil {
			t.Errorf("reparse of %q: %v", p1, err)
			continue
		}
		if p2 := Print(e2); p2 != p1 {
			t.Errorf("print/parse not a fixpoint:\n  %q\n  %q", p1, p2)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Errorf("ASTs differ for %q", in)
		}
	}
}

func TestFreeVars(t *testing.T) {
	q := MustParse(`{ for $b in $ROOT/bib/book return { $b/title } { $z } }`)
	got := FreeVars(q)
	want := []string{"$ROOT", "$z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FreeVars = %v, want %v", got, want)
	}
	// where-clause variables count; bound variable does not.
	q2 := MustParse(`{ for $b in $y/book where $b/x = $w/y return ok }`)
	if got := FreeVars(q2); !reflect.DeepEqual(got, []string{"$w", "$y"}) {
		t.Errorf("FreeVars = %v, want [$w $y]", got)
	}
}

func TestUsesVar(t *testing.T) {
	q := MustParse(`{ for $b in $y/book return { $b } }`)
	if !UsesVar(q, "$b") {
		t.Error("UsesVar($b) = false")
	}
	if UsesVar(q, "$y") {
		t.Error("UsesVar($y) = true; $y is only a range, not output")
	}
}

func TestRenameVarShadowing(t *testing.T) {
	q := MustParse(`{ for $x in $y/a return { $x } } { $x }`)
	r := RenameVar(q, "$x", "$z")
	want := `{ for $x in $y/a return { $x } } { $z }`
	if got := Print(r); got != want {
		t.Errorf("RenameVar = %q, want %q", got, want)
	}
}

func TestWhitespaceTrimming(t *testing.T) {
	q := MustParse("  <a>\n  { $x }  \n  </a>  ")
	if got := Print(q); got != "<a> { $x } </a>" {
		t.Errorf("Print = %q", got)
	}
}

func TestCondPathsCollection(t *testing.T) {
	q := MustParse(`{ for $b in $y/book where $b/x = $w/y/z and exists $b/q return ok }`)
	paths := CondPaths(q.(*For).Where, nil)
	var got []string
	for _, cp := range paths {
		got = append(got, cp.Var+"/"+cp.Path.String())
	}
	want := []string{"$b/x", "$w/y/z", "$b/q"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("cond paths = %v, want %v", got, want)
	}
}

// FuzzParsePrint: every query Parse accepts prints to text that parses
// back to an equal AST.
func FuzzParsePrint(f *testing.F) {
	for _, s := range []string{
		`{ if 0.5 * $v/d != $ROOT/r/c then x }`,
		`{ if not 2 * $v/d < 7 then x }`,
		`{ if (10 * $v/d >= $w/e or exists $v/d) and $v/k = 'a' then x }`,
		`{ for $v in $ROOT/r/a where $v/k > (2 * $w/k) return { $v } }`,
		`a { b } { { } $c } { if $x/a = "it's" then { { } for } }`,
		`<r> { for $b in /bib/book where empty($b/year) or $b/title != '-' return <t> { $b/title } </t> } </r>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		e1, err := Parse(in)
		if err != nil {
			return
		}
		text := Print(e1)
		e2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its print %q does not parse: %v", in, text, err)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("Parse(%q) and Parse(Print) differ:\n  print:   %q\n  reprint: %q", in, text, Print(e2))
		}
	})
}
