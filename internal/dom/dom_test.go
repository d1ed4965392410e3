package dom

import (
	"context"
	"strings"
	"testing"

	"flux/internal/sax"
	"flux/internal/xq"
)

const bibDoc = `<bib>
<book><title>TCP/IP Illustrated</title><author>Stevens</author><publisher>Addison-Wesley</publisher><year>1994</year></book>
<book><title>Advanced Programming</title><author>Stevens</author><publisher>Addison-Wesley</publisher><year>1992</year></book>
<book><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><publisher>Morgan Kaufmann</publisher><year>2000</year></book>
</bib>`

func evalStr(t *testing.T, query, doc string) string {
	t.Helper()
	var sb strings.Builder
	_, err := RunNaive(context.Background(), xq.MustParse(query), strings.NewReader(doc), &sb,
		sax.Options{SkipWhitespaceText: true})
	if err != nil {
		t.Fatalf("RunNaive: %v", err)
	}
	return sb.String()
}

func TestEvalBasicOutputs(t *testing.T) {
	cases := []struct{ query, want string }{
		{`hello`, `hello`},
		{`{ $ROOT/bib/book/title }`,
			`<title>TCP/IP Illustrated</title><title>Advanced Programming</title><title>Data on the Web</title>`},
		{`{ for $b in /bib/book return <t> { $b/year } </t> }`,
			`<t><year>1994</year></t><t><year>1992</year></t><t><year>2000</year></t>`},
		{`{ for $b in /bib/book where $b/year > 1993 return { $b/title } }`,
			`<title>TCP/IP Illustrated</title><title>Data on the Web</title>`},
		{`{ for $b in /bib/book where $b/author = 'Buneman' return { $b/title } }`,
			`<title>Data on the Web</title>`},
		{`{ if exists $ROOT/bib/book then yes }`, `yes`},
		{`{ if empty($ROOT/bib/journal) then none }`, `none`},
		{`{ for $b in /bib/book where $b/year >= 2000 and not $b/author = 'Stevens' return ok }`, `ok`},
	}
	for _, c := range cases {
		if got := evalStr(t, c.query, bibDoc); got != c.want {
			t.Errorf("eval(%s) = %q, want %q", c.query, got, c.want)
		}
	}
}

// TestEvalXMPQ1 runs the paper's running example end to end.
func TestEvalXMPQ1(t *testing.T) {
	q := `<bib> { for $b in $ROOT/bib/book
		where $b/publisher = "Addison-Wesley" and $b/year > 1991
		return <book> {$b/year} {$b/title} </book> } </bib>`
	want := `<bib><book><year>1994</year><title>TCP/IP Illustrated</title></book>` +
		`<book><year>1992</year><title>Advanced Programming</title></book></bib>`
	if got := evalStr(t, q, bibDoc); got != want {
		t.Errorf("Q1 = %q, want %q", got, want)
	}
}

// TestEvalNormalizationEquivalence: Theorem 4.1 — a query and its
// normalization produce identical output.
func TestEvalNormalizationEquivalence(t *testing.T) {
	queries := []string{
		`<bib> { for $b in /bib/book where $b/publisher = 'Addison-Wesley' and $b/year > 1991 return <book> {$b/year} {$b/title} </book> } </bib>`,
		`{ $ROOT/bib/book/title }`,
		`{ for $b in /bib/book return { if $b/year > 1993 then { $b/title } } }`,
		`<r> { for $b in /bib/book return { for $a in $b/author return <p> { $a } </p> } } </r>`,
	}
	for _, q := range queries {
		orig := evalStr(t, q, bibDoc)
		norm := xq.Normalize(xq.MustParse(q))
		var sb strings.Builder
		if _, err := RunNaive(context.Background(), norm, strings.NewReader(bibDoc), &sb, sax.Options{SkipWhitespaceText: true}); err != nil {
			t.Fatalf("normalized eval: %v", err)
		}
		if sb.String() != orig {
			t.Errorf("normalization changed semantics for %s:\n  orig %q\n  norm %q", q, orig, sb.String())
		}
	}
}

// TestEvalJoin exercises the Example 4.6 join.
func TestEvalJoin(t *testing.T) {
	doc := `<bib>
<book><title>B1</title><editor>Smith</editor><publisher>P</publisher></book>
<book><title>B2</title><author>Jones</author><publisher>P</publisher></book>
<article><title>A1</title><author>Smith</author><journal>J</journal></article>
<article><title>A2</title><author>Nobody</author><journal>J</journal></article>
</bib>`
	q := `<results>
{ for $bib in $ROOT/bib return
  { for $article in $bib/article return
    { for $book in $bib/book
      where $article/author = $book/editor return
      { <result> {$article/author} </result> } }}}
</results>`
	want := `<results><result><author>Smith</author></result></results>`
	if got := evalStr(t, q, doc); got != want {
		t.Errorf("join = %q, want %q", got, want)
	}
}

func TestEvalScaledComparison(t *testing.T) {
	doc := `<site><person><income>60000</income></person><auction><initial>10</initial></auction><auction><initial>50000</initial></auction></site>`
	q := `{ for $p in /site/person return
	  { for $o in /site/auction where $p/income > 5000 * $o/initial return hit } }`
	if got := evalStr(t, q, doc); got != "hit" {
		t.Errorf("scaled comparison = %q, want hit", got)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		l  string
		op xq.RelOp
		r  string
		w  bool
	}{
		{"10", xq.OpGt, "9", true},
		{"10", xq.OpLt, "9", false}, // numeric, not lexicographic
		{"abc", xq.OpEq, "abc", true},
		{"abc", xq.OpLt, "abd", true},
		{"1991", xq.OpGe, "1991", true},
		{" 42 ", xq.OpEq, "42", true}, // whitespace-insensitive numerics
		{"x", xq.OpNe, "y", true},
	}
	for _, c := range cases {
		if got := CompareValues(c.l, c.op, c.r); got != c.w {
			t.Errorf("CompareValues(%q %s %q) = %v, want %v", c.l, c.op, c.r, got, c.w)
		}
	}
}

func TestNodeBytesAndStringValue(t *testing.T) {
	root, err := BuildString(`<a><b>xy</b><c/></a>`, sax.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sv := root.StringValue(); sv != "xy" {
		t.Errorf("StringValue = %q", sv)
	}
	// <a></a>=7, <b></b>=7, xy=2, <c></c>=7
	if got := root.Bytes(); got != 23 {
		t.Errorf("Bytes = %d, want 23", got)
	}
}

// TestProjectionEquivalence: the projection engine must agree with the
// naive engine on every query, while materializing no more data.
func TestProjectionEquivalence(t *testing.T) {
	queries := []string{
		`<bib> { for $b in /bib/book where $b/publisher = 'Addison-Wesley' and $b/year > 1991 return <book> {$b/year} {$b/title} </book> } </bib>`,
		`{ $ROOT/bib/book/title }`,
		`{ for $b in /bib/book return { $b } }`,
		`{ if exists $ROOT/bib/book then yes }`,
		`nothing projected`,
		`{ for $b in /bib/book where empty($b/zzz) return x }`,
	}
	for _, q := range queries {
		e := xq.MustParse(q)
		var nb, pb strings.Builder
		ns, err := RunNaive(context.Background(), e, strings.NewReader(bibDoc), &nb, sax.Options{SkipWhitespaceText: true})
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		ps, err := RunProjection(context.Background(), e, strings.NewReader(bibDoc), &pb, sax.Options{SkipWhitespaceText: true})
		if err != nil {
			t.Fatalf("projection: %v", err)
		}
		if nb.String() != pb.String() {
			t.Errorf("projection changed semantics for %s:\n  naive %q\n  proj  %q", q, nb.String(), pb.String())
		}
		if ps.BufferBytes > ns.BufferBytes {
			t.Errorf("projection materialized more than naive for %s: %d > %d", q, ps.BufferBytes, ns.BufferBytes)
		}
	}
}

func TestProjectionActuallyProjects(t *testing.T) {
	q := xq.MustParse(`{ for $b in /bib/book return { $b/title } }`)
	var sb strings.Builder
	ps, err := RunProjection(context.Background(), q, strings.NewReader(bibDoc), &sb, sax.Options{SkipWhitespaceText: true})
	if err != nil {
		t.Fatal(err)
	}
	var nb strings.Builder
	ns, err := RunNaive(context.Background(), q, strings.NewReader(bibDoc), &nb, sax.Options{SkipWhitespaceText: true})
	if err != nil {
		t.Fatal(err)
	}
	// Titles only: the projected tree must be well under half the full tree.
	if ps.BufferBytes*2 >= ns.BufferBytes {
		t.Errorf("projection too large: %d vs naive %d", ps.BufferBytes, ns.BufferBytes)
	}
}
