package engine

import (
	"context"
	"strings"
	"testing"

	"flux/internal/core"
	"flux/internal/dom"
	"flux/internal/dtd"
	"flux/internal/sax"
	"flux/internal/xq"
)

const (
	weakBibDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`
	useCaseBibDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title,(author+|editor+),publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`
	q1DTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|publisher|year)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`
	joinOrderedDTD = `
<!ELEMENT bib (book*,article*)>
<!ELEMENT book (title,(author+|editor+),publisher)>
<!ELEMENT article (title,author+,journal)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
`
	joinUnorderedDTD = `
<!ELEMENT bib (book|article)*>
<!ELEMENT book (title,(author+|editor+),publisher)>
<!ELEMENT article (title,author+,journal)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
`
)

var saxOpt = sax.Options{SkipWhitespaceText: true}

// runBoth executes the query on the FluX engine and on the naive DOM
// oracle and requires byte-identical output; it returns the FluX stats.
func runBoth(t *testing.T, dtdText, query, doc string) Stats {
	t.Helper()
	schema := dtd.MustParse(dtdText)
	q := xq.MustParse(query)
	f, err := core.Schedule(schema, q)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	plan, err := Compile(schema, f)
	if err != nil {
		t.Fatalf("Compile: %v\nFluX: %s", err, core.Print(f))
	}
	var fluxOut strings.Builder
	st, err := Run(plan, strings.NewReader(doc), &fluxOut, saxOpt)
	if err != nil {
		t.Fatalf("Run: %v\nFluX: %s\nPlan:\n%s", err, core.Print(f), plan.Describe())
	}
	var domOut strings.Builder
	if _, err := dom.RunNaive(context.Background(), q, strings.NewReader(doc), &domOut, saxOpt); err != nil {
		t.Fatalf("dom.RunNaive: %v", err)
	}
	if fluxOut.String() != domOut.String() {
		t.Errorf("output mismatch for %s\n  flux: %q\n  dom : %q\nFluX: %s\nPlan:\n%s",
			query, fluxOut.String(), domOut.String(), core.Print(f), plan.Describe())
	}
	return st
}

const introDoc = `<bib>` +
	`<book><title>T1</title><author>A1</author><author>A2</author><title>T2</title></book>` +
	`<book><author>A3</author></book>` +
	`<book></book>` +
	`</bib>`

const introQ3 = `<results>
{ for $b in $ROOT/bib/book return
<result> { $b/title } { $b/author } </result> }
</results>`

// TestIntroExampleWeak: under the weak DTD, titles stream and authors of
// one book at a time buffer. Output order per book: all titles, then all
// authors (XQuery semantics).
func TestIntroExampleWeak(t *testing.T) {
	st := runBoth(t, weakBibDTD, introQ3, introDoc)
	if st.PeakBufferBytes == 0 {
		t.Error("weak DTD requires buffering authors, got 0 bytes")
	}
	// Only one book's authors buffer at a time: far below document size.
	if st.PeakBufferBytes > 60 {
		t.Errorf("peak buffer = %d bytes, want roughly one book's authors", st.PeakBufferBytes)
	}
}

// TestIntroExampleStrong: the use-case DTD orders title before author, so
// the query is fully streaming — zero bytes buffered (the paper's headline
// behaviour, Figure 4 Q1/Q13 pattern).
func TestIntroExampleStrong(t *testing.T) {
	doc := `<bib>` +
		`<book><title>T1</title><author>A1</author><author>A2</author><publisher>P</publisher><price>3</price></book>` +
		`<book><title>T2</title><editor>E1</editor><publisher>P</publisher><price>4</price></book>` +
		`</bib>`
	st := runBoth(t, useCaseBibDTD, introQ3, doc)
	if st.PeakBufferBytes != 0 {
		t.Errorf("use-case DTD run buffered %d bytes, want 0", st.PeakBufferBytes)
	}
}

// TestXMPQ1 runs the conditional query of Examples 4.2/4.5 on both DTD
// variants.
func TestXMPQ1(t *testing.T) {
	q1 := `<bib>
{ for $b in $ROOT/bib/book
  where $b/publisher = "Addison-Wesley" and $b/year > 1991
  return <book> {$b/year} {$b/title} </book> }
</bib>`
	doc := `<bib>` +
		`<book><title>W</title><publisher>Addison-Wesley</publisher><year>1994</year></book>` +
		`<book><publisher>Addison-Wesley</publisher><year>1990</year><title>Old</title></book>` +
		`<book><year>2000</year><publisher>Other</publisher><title>N</title></book>` +
		`<book><title>T</title><year>1999</year><publisher>Addison-Wesley</publisher><title>T2</title></book>` +
		`</bib>`
	st := runBoth(t, q1DTD, q1, doc)
	if st.PeakBufferBytes == 0 {
		t.Error("weak order: titles must buffer (condition awaits publisher/year)")
	}
}

// TestXMPQ2 runs the title×author product of Example 4.4 on both DTDs.
func TestXMPQ2(t *testing.T) {
	q2 := `<results>
{ for $bib in $ROOT/bib return
  { for $b in $bib/book return
    { for $t in $b/title return
      { for $a in $b/author return
        <result> {$t} {$a} </result> } } } }
</results>`
	runBoth(t, weakBibDTD, q2, introDoc)
	authorFirst := `
<!ELEMENT bib (book)*>
<!ELEMENT book (author*,title*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`
	doc := `<bib>` +
		`<book><author>A1</author><author>A2</author><title>T1</title><title>T2</title></book>` +
		`<book><title>T3</title></book>` +
		`</bib>`
	runBoth(t, authorFirst, q2, doc)
}

// TestExample46Join runs the editor join on both DTD variants (Example
// 4.6 / 5.2) and checks that the ordered DTD buffers less.
func TestExample46Join(t *testing.T) {
	q3 := `<results>
{ for $bib in $ROOT/bib return
  { for $article in $bib/article return
    { for $book in $bib/book
      where $article/author = $book/editor return
      { <result> {$article/author} </result> } }}}
</results>`
	ordered := `<bib>` +
		`<book><title>B1</title><editor>Smith</editor><publisher>P</publisher></book>` +
		`<book><title>B2</title><author>Jones</author><publisher>P</publisher></book>` +
		`<article><title>A1</title><author>Smith</author><journal>J</journal></article>` +
		`<article><title>A2</title><author>Nobody</author><journal>J</journal></article>` +
		`</bib>`
	stOrd := runBoth(t, joinOrderedDTD, q3, ordered)
	stUnord := runBoth(t, joinUnorderedDTD, q3, ordered)
	if stOrd.PeakBufferBytes >= stUnord.PeakBufferBytes {
		t.Errorf("ordered DTD should buffer less: ordered %d vs unordered %d",
			stOrd.PeakBufferBytes, stUnord.PeakBufferBytes)
	}
}

// TestEmptyCondition is the XMark Q20 pattern: buffer one element at a
// time, gated by empty().
func TestEmptyCondition(t *testing.T) {
	d := `
<!ELEMENT people (person)*>
<!ELEMENT person (name,income?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT income (#PCDATA)>
`
	q := `<poor> { for $p in $ROOT/people/person where empty($p/income) return {$p} } </poor>`
	doc := `<people>` +
		`<person><name>A</name><income>10</income></person>` +
		`<person><name>B</name></person>` +
		`<person><name>C</name><income>3</income></person>` +
		`<person><name>D</name></person>` +
		`</people>`
	st := runBoth(t, d, q, doc)
	if st.PeakBufferBytes == 0 || st.PeakBufferBytes > 80 {
		t.Errorf("peak buffer = %d, want one person at a time", st.PeakBufferBytes)
	}
}

// TestStreamCopyWholeDocument: a dependency-free {$ROOT} copy must stream
// with zero buffering.
func TestStreamCopyWholeDocument(t *testing.T) {
	st := runBoth(t, weakBibDTD, `<all> { $ROOT } </all>`, introDoc)
	if st.PeakBufferBytes != 0 {
		t.Errorf("document copy buffered %d bytes, want 0", st.PeakBufferBytes)
	}
}

// TestGuardedCopy: a conditional stream-copy guarded by a flag on an
// ancestor scope.
func TestGuardedCopy(t *testing.T) {
	d := `
<!ELEMENT r (flagval,item*)>
<!ELEMENT flagval (#PCDATA)>
<!ELEMENT item (#PCDATA)>
`
	q := `{ for $i in $ROOT/r/item return { if $ROOT/r/flagval = 'yes' then { $i } } }`
	yes := `<r><flagval>yes</flagval><item>1</item><item>2</item></r>`
	no := `<r><flagval>no</flagval><item>1</item></r>`
	runBoth(t, d, q, yes)
	runBoth(t, d, q, no)
}

// TestDeferredOnFirst: a trailing string whose punctuation event fires on
// the same child as an on-handler must be emitted after the child.
func TestDeferredOnFirst(t *testing.T) {
	d := `
<!ELEMENT r (a,b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`
	// <r>…</r> wrapper strings around streamed a and b: the "]" string's
	// past(a,b) becomes true at b's open tag, where on b also fires.
	q := `{ for $r in $ROOT/r return [ { $r/a } { $r/b } ] }`
	doc := `<r><a>x</a><b>y</b></r>`
	runBoth(t, d, q, doc)
}

// TestScopeReuseAcrossSiblings: per-scope state (flags, buffers, fired
// bits) must reset for each element instance.
func TestScopeReuseAcrossSiblings(t *testing.T) {
	d := `
<!ELEMENT people (person)*>
<!ELEMENT person (name,income?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT income (#PCDATA)>
`
	q := `{ for $p in $ROOT/people/person where $p/income = '1' return { $p/name } }`
	doc := `<people>` +
		`<person><name>A</name><income>1</income></person>` +
		`<person><name>B</name></person>` +
		`<person><name>C</name><income>2</income></person>` +
		`<person><name>D</name><income>1</income></person>` +
		`</people>`
	runBoth(t, d, q, doc)
}

// TestRecursiveSchema: scopes must nest correctly when the DTD is
// recursive.
func TestRecursiveSchema(t *testing.T) {
	d := `
<!ELEMENT part (id,part*)>
<!ELEMENT id (#PCDATA)>
`
	q := `{ for $p in $ROOT/part/part return { $p/id } }`
	doc := `<part><id>0</id><part><id>1</id><part><id>2</id></part></part><part><id>3</id></part></part>`
	runBoth(t, d, q, doc)
}

// TestValidationErrors: the engine rejects invalid documents.
func TestValidationErrors(t *testing.T) {
	schema := dtd.MustParse(useCaseBibDTD)
	f, err := core.Schedule(schema, xq.MustParse(introQ3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(schema, f)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>1</price></book></bib>`, // order violated
		`<bib><book><title>T</title></book></bib>`,                                                           // incomplete
		`<bib><zap/></bib>`, // undeclared
		`<bib>text</bib>`,   // stray text
	}
	for _, doc := range bad {
		var sb strings.Builder
		if _, err := Run(plan, strings.NewReader(doc), &sb, saxOpt); err == nil {
			t.Errorf("invalid document accepted: %s", doc)
		}
	}
}

// TestDifferentialRandomDocs cross-checks the engine against the DOM
// oracle on randomized valid documents for every example query/DTD pair.
func TestDifferentialRandomDocs(t *testing.T) {
	cases := []struct{ dtdText, query string }{
		{weakBibDTD, introQ3},
		{useCaseBibDTD, introQ3},
		{q1DTD, `<bib> { for $b in $ROOT/bib/book where $b/publisher = 'alpha' and $b/year > 1991 return <book> {$b/year} {$b/title} </book> } </bib>`},
		{joinOrderedDTD, `<results> { for $bib in $ROOT/bib return { for $article in $bib/article return { for $book in $bib/book where $article/author = $book/editor return <result> {$article/author} </result> } } } </results>`},
		{joinUnorderedDTD, `<results> { for $bib in $ROOT/bib return { for $article in $bib/article return { for $book in $bib/book where $article/author = $book/editor return <result> {$article/author} </result> } } } </results>`},
		{weakBibDTD, `{ for $b in /bib/book return { if exists $b/author then <hasA/> } { if empty($b/title) then <noT/> } }`},
	}
	for ci, c := range cases {
		schema := dtd.MustParse(c.dtdText)
		for seed := int64(0); seed < 25; seed++ {
			doc := dtd.RandomDocument(schema, seed, dtd.GenOptions{})
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("case %d seed %d panicked: %v\ndoc: %s", ci, seed, r, doc)
					}
				}()
				runBoth(t, c.dtdText, c.query, doc)
			}()
		}
	}
}

// TestBufferFreedBetweenScopes: peak buffering with many books must stay
// bounded by one book (buffers are freed on scope exit).
func TestBufferFreedBetweenScopes(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<bib>")
	for i := 0; i < 100; i++ {
		sb.WriteString("<book><title>T</title><author>AAAAAAAAAA</author></book>")
	}
	sb.WriteString("</bib>")
	st := runBoth(t, weakBibDTD, introQ3, sb.String())
	if st.PeakBufferBytes > 100 {
		t.Errorf("peak buffer %d grows with book count; buffers not freed", st.PeakBufferBytes)
	}
}

func TestPlanDescribe(t *testing.T) {
	schema := dtd.MustParse(weakBibDTD)
	f, err := core.Schedule(schema, xq.MustParse(introQ3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(schema, f)
	if err != nil {
		t.Fatal(err)
	}
	desc := plan.Describe()
	for _, want := range []string{"scope $ROOT", "on bib", "buffer tree"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

// mustSchema and mustSchedule are shared helpers for targeted tests.
func mustSchema(t *testing.T, dtdText string) *dtd.Schema {
	t.Helper()
	schema, err := dtd.Parse(dtdText)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func mustSchedule(t *testing.T, schema *dtd.Schema, query string) core.Flux {
	t.Helper()
	f, err := core.Schedule(schema, xq.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	return f
}
