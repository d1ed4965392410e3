package core

import (
	"strings"
	"testing"

	"flux/internal/dtd"
	"flux/internal/xq"
)

// TestSafetySection1Counterexample reproduces the unsafe query discussed
// in Section 1: with <!ELEMENT book ((title|author)*,price)>, firing
// on-first past(title,author) and then reading $book/price is unsafe,
// because price arrives only later.
func TestSafetySection1Counterexample(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT bib (book)*>
<!ELEMENT book ((title|author)*,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`)
	unsafe := &PS{Var: "$ROOT", Handlers: []Handler{
		&On{Name: "bib", Var: "$bib", Body: &PS{Var: "$bib", Handlers: []Handler{
			&On{Name: "book", Var: "$book", Body: &PS{Var: "$book", Handlers: []Handler{
				&OnFirst{Past: []string{"author", "title"},
					Body: xq.MustParse(`{ for $a in $book/price return { $a } }`)},
			}}},
		}}},
	}}
	err := CheckSafety(schema, unsafe)
	if err == nil {
		t.Fatal("unsafe query accepted")
	}
	if !strings.Contains(err.Error(), "price") {
		t.Errorf("error should mention price: %v", err)
	}

	// The same handler with price in the past-set is safe.
	safe := &PS{Var: "$ROOT", Handlers: []Handler{
		&On{Name: "bib", Var: "$bib", Body: &PS{Var: "$bib", Handlers: []Handler{
			&On{Name: "book", Var: "$book", Body: &PS{Var: "$book", Handlers: []Handler{
				&OnFirst{Past: []string{"author", "price", "title"},
					Body: xq.MustParse(`{ for $a in $book/price return { $a } }`)},
			}}},
		}}},
	}}
	if err := CheckSafety(schema, safe); err != nil {
		t.Errorf("safe query rejected: %v", err)
	}
}

// TestSafetyOrderCoverage: a dependency not in S is still covered when an
// order constraint places it before some element of S.
func TestSafetyOrderCoverage(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (a,b,c)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
`)
	q := &PS{Var: "$ROOT", Handlers: []Handler{
		&On{Name: "r", Var: "$r", Body: &PS{Var: "$r", Handlers: []Handler{
			// depends on a, but past(b) implies a is past since Ord(a,b).
			&OnFirst{Past: []string{"b"},
				Body: xq.MustParse(`{ for $x in $r/a return { $x } }`)},
		}}},
	}}
	if err := CheckSafety(schema, q); err != nil {
		t.Errorf("order-covered query rejected: %v", err)
	}
}

// TestSafetyOnHandlerOrder: on-a handlers with a dependency b require
// Ord(b, a).
func TestSafetyOnHandlerOrder(t *testing.T) {
	mk := func(dtdText string) error {
		schema := dtd.MustParse(dtdText)
		q := &PS{Var: "$ROOT", Handlers: []Handler{
			&On{Name: "r", Var: "$r", Body: &PS{Var: "$r", Handlers: []Handler{
				&On{Name: "b", Var: "$t", Body: &PS{Var: "$t", Handlers: []Handler{
					&OnFirst{Past: []string{}, Star: true,
						Body: xq.MustParse(`{ for $x in $r/a return { $x } }`)},
				}}},
			}}},
		}}
		return CheckSafety(schema, q)
	}
	// a before b: streaming on b while referring to $r/a is safe.
	if err := mk(`
<!ELEMENT root (r)*>
<!ELEMENT r (a*,b*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`); err != nil {
		t.Errorf("ordered case rejected: %v", err)
	}
	// interleaved: unsafe.
	if err := mk(`
<!ELEMENT root (r)*>
<!ELEMENT r (a|b)*>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`); err == nil {
		t.Error("interleaved case accepted")
	}
}

// TestSafetySimpleHandlerOutputsOwnVar: a simple on-handler body may
// output only its own variable (Definition 3.6, condition 2).
func TestSafetySimpleHandlerOutputsOwnVar(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (a)*>
<!ELEMENT a (#PCDATA)>
`)
	bad := &PS{Var: "$ROOT", Handlers: []Handler{
		&On{Name: "r", Var: "$r", Body: &PS{Var: "$r", Handlers: []Handler{
			&On{Name: "a", Var: "$x", Body: &Simple{Expr: xq.MustParse(`{ $r }`)}},
		}}},
	}}
	if err := CheckSafety(schema, bad); err == nil {
		t.Error("simple handler outputting foreign variable accepted")
	}
	good := &PS{Var: "$ROOT", Handlers: []Handler{
		&On{Name: "r", Var: "$r", Body: &PS{Var: "$r", Handlers: []Handler{
			&On{Name: "a", Var: "$x", Body: &Simple{Expr: xq.MustParse(`<w> { $x } </w>`)}},
		}}},
	}}
	if err := CheckSafety(schema, good); err != nil {
		t.Errorf("stream-copy handler rejected: %v", err)
	}
}

// TestSafetyOnFirstForeignSubtreeOutput: an on-first handler outputting an
// ancestor's subtree is unsafe (the ancestor is not fully read).
func TestSafetyOnFirstForeignSubtreeOutput(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT r (a)*>
<!ELEMENT a (b)*>
<!ELEMENT b (#PCDATA)>
`)
	bad := &PS{Var: "$ROOT", Handlers: []Handler{
		&On{Name: "r", Var: "$r", Body: &PS{Var: "$r", Handlers: []Handler{
			&On{Name: "a", Var: "$x", Body: &PS{Var: "$x", Handlers: []Handler{
				&OnFirst{Past: []string{"b"}, Body: xq.MustParse(`{ $r }`)},
			}}},
		}}},
	}}
	if err := CheckSafety(schema, bad); err == nil {
		t.Error("on-first outputting ancestor subtree accepted")
	}
}

// TestScheduledQueriesAreSafe: every query the scheduler emits must pass
// the checker (Theorem 4.3); exercised across all example queries/DTDs.
func TestScheduledQueriesAreSafe(t *testing.T) {
	cases := []struct{ dtdText, query string }{
		{weakBibDTD, q2Text},
		{authorFirstDTD, q2Text},
		{q1WeakDTD, q1Text},
		{q1OrderedDTD, q1Text},
		{joinDTD, q3Text},
		{joinOrderedDTD, q3Text},
		{useCaseBibDTD, `<r> { for $b in $ROOT/bib/book return { $b } } </r>`},
	}
	for i, c := range cases {
		schema := dtd.MustParse(c.dtdText)
		f, err := Schedule(schema, xq.MustParse(c.query))
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if err := CheckSafety(schema, f); err != nil {
			t.Errorf("case %d: scheduled query unsafe: %v\n%s", i, err, Print(f))
		}
	}
}

// TestSafetyTopLevelSimple: a top-level simple expression is judged in
// the process-stream form the engine runs it in, where its prefix fires
// at the document's start, before any of $ROOT/bib is read.
func TestSafetyTopLevelSimple(t *testing.T) {
	schema := dtd.MustParse(weakBibDTD)
	if err := CheckSafety(schema, MustParseFlux(`<a> { if exists $ROOT/bib/book then x } </a>`)); err == nil {
		t.Error("top-level simple expression reading $ROOT/bib accepted")
	}
	if err := CheckSafety(schema, MustParseFlux(`<all> { $ROOT } </all>`)); err != nil {
		t.Errorf("stream copy of the document rejected: %v", err)
	}
}

// TestSafetyOpenElement: an element is open while an on handler for it
// runs, and while an on-first handler that precedes such a handler in ζ
// runs at its start tag. Its start tag settles existence, not its value.
func TestSafetyOpenElement(t *testing.T) {
	schema := dtd.MustParse(q1OrderedDTD)
	cases := []struct {
		flux string
		safe bool
	}{
		// F1' with the year streamed: the guard reads the open year's value.
		{`{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on year as $y return { if $b/year > 1991 then { $y } } } } }`, false},
		{`{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on year as $y return { if exists $b/year then { $y } } } } }`, true},
		{`{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on-first past(year) return { for $y in $b/year return { if $b/year > 1991 then { $y } } } } } }`, true},
		// The on-first handler fires at year's start tag, before on year
		// streams it.
		{`{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on-first past(year) return { if $b/year > 1991 then new };
			on year as $y return { $y } } } }`, false},
		{`{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on-first past(year) return { if $b/publisher = 'AW' then aw };
			on year as $y return { $y } } } }`, true},
	}
	for i, c := range cases {
		err := CheckSafety(schema, MustParseFlux(c.flux))
		if (err == nil) != c.safe {
			t.Errorf("case %d: CheckSafety = %v, want safe %v", i, err, c.safe)
		}
	}
}

// TestSafetyEnclosingScopePaths: a path on an enclosing scope is complete
// if it diverges from the scope chain before an element it is ordered
// before, or follows the chain through at-most-once steps to data the
// current handler waits for.
func TestSafetyEnclosingScopePaths(t *testing.T) {
	cases := []struct {
		dtdText, flux string
		safe          bool
	}{
		// Example 4.6's F3': books precede articles.
		{joinOrderedDTD, `{ ps $ROOT: on bib as $bib return { ps $bib: on article as $a return { ps $a:
			on-first past(author) return { for $b in $bib/book return { $b } } } } }`, true},
		{joinDTD, `{ ps $ROOT: on bib as $bib return { ps $bib: on article as $a return { ps $a:
			on-first past(author) return { for $b in $bib/book return { $b } } } } }`, false},
		// $ROOT/bib/book from inside a book: bib is a singleton, book
		// repeats, so later books could match.
		{joinOrderedDTD, `{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on-first past(*) return { for $c in $ROOT/bib/book return { $c } } } } }`, false},
		// $ROOT/bib/book/title from inside a book's scope: the chain
		// through bib is a singleton step, but book repeats.
		{q1OrderedDTD, `{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on-first past(year) return { if $ROOT/bib/book/year > 1991 then new } } } }`, false},
		{q1OrderedDTD, `{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return { ps $b:
			on-first past(publisher) return { if $ROOT/bib/title = 'x' then new } } } }`, true},
	}
	for i, c := range cases {
		err := CheckSafety(dtd.MustParse(c.dtdText), MustParseFlux(c.flux))
		if (err == nil) != c.safe {
			t.Errorf("case %d: CheckSafety = %v, want safe %v", i, err, c.safe)
		}
	}
}
