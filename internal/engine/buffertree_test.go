package engine

import (
	"strings"
	"testing"

	"flux/internal/core"
	"flux/internal/dtd"
	"flux/internal/xq"
)

// TestExample51BufferTrees reproduces the paper's Example 5.1 / Figure 3:
// for the hand-written FluX query selecting publishers whose CEO authored
// articles, the buffer trees are
//
//	$bib:     book → publisher •   (ceo pruned below the marked publisher)
//	$article: author •
func TestExample51BufferTrees(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT bib (book*,article*)>
<!ELEMENT book (publisher*)>
<!ELEMENT publisher (name?,ceo?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT ceo (#PCDATA)>
<!ELEMENT article (author*)>
<!ELEMENT author (#PCDATA)>
`)
	// The paper's query, as a FluX expression (it is hand-written in the
	// paper, not produced by rewrite).
	q := &core.PS{Var: "$ROOT", Handlers: []core.Handler{
		&core.On{Name: "bib", Var: "$bib", Body: &core.PS{Var: "$bib", Handlers: []core.Handler{
			&core.On{Name: "article", Var: "$article", Body: &core.PS{Var: "$article", Handlers: []core.Handler{
				&core.OnFirst{Past: []string{"author"}, Body: xq.MustParse(
					`{ for $book in $bib/book return
					   { for $p in $book/publisher return
					     { if $article/author = $book/publisher/ceo then {$p} } } }`)},
			}}},
		}}},
	}}
	if err := core.CheckSafety(schema, q); err != nil {
		t.Fatalf("Example 5.1 query should be safe: %v", err)
	}
	plan, err := Compile(schema, q)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	desc := plan.Describe()
	// $bib buffers book (tags) and publisher (marked); ceo must be pruned
	// below the marked publisher node.
	if !strings.Contains(desc, "publisher •") {
		t.Errorf("publisher not marked:\n%s", desc)
	}
	for _, line := range strings.Split(desc, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "ceo" {
			t.Errorf("ceo should be pruned below marked publisher (Figure 3):\n%s", desc)
		}
	}
	if !strings.Contains(desc, "join $article/author = $book/publisher/ceo: hash") {
		t.Errorf("the CEO join is not described as a hash join:\n%s", desc)
	}
	if !strings.Contains(desc, "author •") {
		t.Errorf("author not marked in $article tree:\n%s", desc)
	}

	// End to end, against the paper's description: books buffer while
	// articles stream; the CEO join works off the buffered publishers.
	doc := `<bib>` +
		`<book><publisher><name>P1</name><ceo>Ann</ceo></publisher></book>` +
		`<book><publisher><name>P2</name><ceo>Bob</ceo></publisher><publisher><name>P3</name></publisher></book>` +
		`<article><author>Bob</author></article>` +
		`<article><author>Zoe</author></article>` +
		`</bib>`
	var sb strings.Builder
	if _, err := Run(plan, strings.NewReader(doc), &sb, saxOpt); err != nil {
		t.Fatal(err)
	}
	// The condition navigates $book/publisher/ceo, i.e. existentially over
	// ALL of the book's publishers, so both publishers of the matching
	// book are selected (XQuery general-comparison semantics).
	want := `<publisher><name>P2</name><ceo>Bob</ceo></publisher>` +
		`<publisher><name>P3</name></publisher>`
	if sb.String() != want {
		t.Errorf("result = %q, want %q", sb.String(), want)
	}
}

// TestExample52Evaluators mirrors the paper's Example 5.2 walk-through
// (query F3' with editor instead of publisher): book data buffers in
// buffer $bib, article authors buffer per article, and the join executes
// at ofp(author) of each article.
func TestExample52Evaluators(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT bib (book*,article*)>
<!ELEMENT book (title,(author+|editor+),publisher)>
<!ELEMENT article (title,author+,journal)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
`)
	f, err := core.Schedule(schema, xq.MustParse(`<results>
{ for $bib in $ROOT/bib return
  { for $article in $bib/article return
    { for $book in $bib/book
      where $article/author = $book/editor return
      { <result> {$article/author} </result> } }}}
</results>`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(schema, f)
	if err != nil {
		t.Fatal(err)
	}
	desc := plan.Describe()
	for _, want := range []string{"editor •", "author •", "on article as"} {
		if !strings.Contains(desc, want) {
			t.Errorf("plan missing %q:\n%s", want, desc)
		}
	}
	// Memory behaviour: with many articles, only one article's authors are
	// held beyond the (constant) book buffer.
	var doc strings.Builder
	doc.WriteString("<bib>")
	doc.WriteString("<book><title>B</title><editor>Smith</editor><publisher>P</publisher></book>")
	for i := 0; i < 50; i++ {
		doc.WriteString("<article><title>A</title><author>Smith</author><journal>J</journal></article>")
	}
	doc.WriteString("</bib>")
	var out strings.Builder
	st, err := Run(plan, strings.NewReader(doc.String()), &out, saxOpt)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakBufferBytes > 120 {
		t.Errorf("peak buffer %d; authors of all articles must not accumulate", st.PeakBufferBytes)
	}
	if !strings.Contains(out.String(), "<result>") {
		t.Errorf("join produced no results: %q", out.String())
	}
}
