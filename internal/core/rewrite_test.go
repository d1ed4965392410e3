package core

import (
	"strings"
	"testing"

	"flux/internal/dtd"
	"flux/internal/xq"
)

// The DTDs used throughout the paper's examples.
const (
	weakBibDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|author)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`
	// Section 1: the XML Query Use Cases schema with title strictly
	// before author.
	useCaseBibDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title,(author+|editor+),publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`
	// Example 4.4, second DTD: authors strictly before titles.
	authorFirstDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (author*,title*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`
	// Example 4.5 DTD without order constraints.
	q1WeakDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title|publisher|year)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`
	// Example 4.5 DTD with year and publisher before title.
	q1OrderedDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (publisher,year,title*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`
	// Example 4.6 DTD (unordered bib children).
	joinDTD = `
<!ELEMENT bib (book|article)*>
<!ELEMENT book (title,(author+|editor+),publisher)>
<!ELEMENT article (title,author+,journal)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
`
	// Example 4.6, second DTD: books strictly before articles.
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
)

// XMP Q2 already in normal form (Example 4.4).
const q2Text = `<results>
{ for $bib in $ROOT/bib return
  { for $b in $bib/book return
    { for $t in $b/title return
      { for $a in $b/author return
        <result> {$t} {$a} </result> } } } }
</results>`

func schedule(t *testing.T, dtdText, query string) Flux {
	t.Helper()
	schema := dtd.MustParse(dtdText)
	f, err := Schedule(schema, xq.MustParse(query))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return f
}

// TestRewriteExample44Weak reproduces F2 of Example 4.4: with no order
// constraint between title and author, the title/author loops are delayed
// by on-first past(author,title).
func TestRewriteExample44Weak(t *testing.T) {
	f := schedule(t, weakBibDTD, q2Text)
	got := Print(f)
	want := `{ ps $ROOT:` +
		` on-first past() return <results>;` +
		` on bib as $bib return` +
		` { ps $bib: on book as $b return` +
		` { ps $b: on-first past(author,title) return` +
		` { for $t in $b/title return { for $a in $b/author return <result> { $t } { $a } </result> } } } };` +
		` on-first past(bib) return </results> }`
	if got != want {
		t.Errorf("F2 mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestRewriteExample44Ordered reproduces F2' of Example 4.4: with
// Ord_book(author,title) the titles stream and only authors buffer.
func TestRewriteExample44Ordered(t *testing.T) {
	f := schedule(t, authorFirstDTD, q2Text)
	got := Print(f)
	want := `{ ps $ROOT:` +
		` on-first past() return <results>;` +
		` on bib as $bib return` +
		` { ps $bib: on book as $b return` +
		` { ps $b: on title as $t return` +
		` { ps $t: on-first past(*) return` +
		` { for $a in $b/author return <result> { $t } { $a } </result> } } } };` +
		` on-first past(bib) return </results> }`
	if got != want {
		t.Errorf("F2' mismatch:\n got %s\nwant %s", got, want)
	}
}

// XMP Q1 (Example 4.2 / 4.5).
const q1Text = `<bib>
{ for $b in $ROOT/bib/book
  where $b/publisher = "Addison-Wesley" and $b/year > 1991
  return <book> {$b/year} {$b/title} </book> }
</bib>`

// TestRewriteExample45Weak reproduces F1 of Example 4.5.
func TestRewriteExample45Weak(t *testing.T) {
	f := schedule(t, q1WeakDTD, q1Text)
	got := Print(f)
	chi := `$b/publisher = 'Addison-Wesley' and $b/year > 1991`
	want := `{ ps $ROOT:` +
		` on-first past() return <bib>;` +
		` on bib as $bib return` +
		` { ps $bib: on book as $b return` +
		` { ps $b:` +
		` on-first past(publisher,year) return { if ` + chi + ` then <book> };` +
		` on-first past(publisher,year) return { for $year in $b/year return { if ` + chi + ` then { $year } } };` +
		` on-first past(publisher,title,year) return { for $title in $b/title return { if ` + chi + ` then { $title } } };` +
		` on-first past(publisher,title,year) return { if ` + chi + ` then </book> } } };` +
		` on-first past(bib) return </bib> }`
	if got != want {
		t.Errorf("F1 mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestRewriteExample45Ordered reproduces F1' of Example 4.5: with
// publisher and year before title, titles stream through an on handler.
// The year's guard compares the year's own value, which is not complete
// at its start tag, so the year is buffered until it closes rather than
// streamed through an on year handler.
func TestRewriteExample45Ordered(t *testing.T) {
	f := schedule(t, q1OrderedDTD, q1Text)
	got := Print(f)
	if !strings.Contains(got, `on title as $title return { if `) {
		t.Errorf("F1' should stream titles with an on handler:\n%s", got)
	}
	if strings.Contains(got, `past(publisher,title,year) return { for $title`) {
		t.Errorf("F1' still buffers titles:\n%s", got)
	}
	if !strings.Contains(got, `on-first past(year) return { for $year in $b/year return`) || strings.Contains(got, "on year as") {
		t.Errorf("F1' must buffer the year its guard compares:\n%s", got)
	}
}

// TestRewriteLoopOverOtherScope: Figure 2 line 31 schedules a loop over
// another variable's scope, where no order between $x's children and the
// loop step exists, so every dependency stays in the past set. In the
// recursive schema pid is a child of both parts; ordering $v1's pid
// against the other part's pid would emit on-first past(), which reads
// $v1/pid before it arrives.
func TestRewriteLoopOverOtherScope(t *testing.T) {
	f := schedule(t, `
<!ELEMENT part (pid,part*)>
<!ELEMENT pid (#PCDATA)>
`, `{ for $v1 in $ROOT/part/part return <o/> { for $v2 in $ROOT/part where $v2/pid != $v1/pid return { $v2/pid } } }`)
	if got := Print(f); !strings.Contains(got, `on-first past(pid) return { for $pid in $part/pid return { if $part/pid != $v1/pid then`) {
		t.Errorf("the loop over $part/pid must wait for $v1's pid:\n%s", got)
	}
}

// TestRewriteLoopAfterOnHandler: an on hdr handler holds hdr open, so a
// later loop over hdr in the same scope, which loop merging keeps apart
// because s3 separates it, counts hdr as unordered and waits for
// on-first past(hdr) rather than taking a second on hdr handler, which
// the engine cannot run.
func TestRewriteLoopAfterOnHandler(t *testing.T) {
	f := schedule(t, `
<!ELEMENT r (hdr,grp*)>
<!ELEMENT hdr (k,v)>
<!ELEMENT grp (k,(x|y)*,v?)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
`, `{ for $v1 in $ROOT/r/hdr return leaf leaf } s3 { if not exists $ROOT/r then { for $v2 in $ROOT/r/hdr where empty($v2/k) return leaf leaf } }`)
	want := `{ ps $ROOT: on r as $r return { ps $r:` +
		` on hdr as $v1 return { ps $v1: on-first past() return leaf leaf };` +
		` on-first past(hdr) return s3;` +
		` on-first past(hdr) return { for $v2 in $r/hdr return { if not exists $ROOT/r and empty($v2/k) then leaf leaf } } } }`
	if got := Print(f); got != want {
		t.Errorf("loop after on hdr:\n got %s\nwant %s", got, want)
	}
}

// Q3 of Example 4.6 (join of article authors with book editors).
const q3Text = `<results>
{ for $bib in $ROOT/bib return
  { for $article in $bib/article return
    { for $book in $bib/book
      where $article/author = $book/editor return
      { <result> {$article/author} </result> } }}}
</results>`

// TestRewriteExample46Unordered reproduces F3: with no order between book
// and article everything under bib is delayed to on-first
// past(article,book).
func TestRewriteExample46Unordered(t *testing.T) {
	f := schedule(t, joinDTD, q3Text)
	got := Print(f)
	if !strings.Contains(got, `{ ps $bib: on-first past(article,book) return`) {
		t.Errorf("F3 must delay on past(article,book):\n%s", got)
	}
	if strings.Contains(got, "on article as") {
		t.Errorf("F3 must not stream articles under the weak DTD:\n%s", got)
	}
}

// TestRewriteExample46Ordered reproduces F3': with (book*,article*) the
// articles stream and only the authors of the current article buffer.
func TestRewriteExample46Ordered(t *testing.T) {
	f := schedule(t, joinOrderedDTD, q3Text)
	got := Print(f)
	if !strings.Contains(got, `on article as $article return { ps $article: on-first past(author) return`) {
		t.Errorf("F3' must stream articles and delay only on past(author):\n%s", got)
	}
}

// TestRewriteIntroQ3 reproduces the Section 1 example: XMP Q3 under the
// weak and the use-case DTDs.
func TestRewriteIntroQ3(t *testing.T) {
	q3 := `<results>
{ for $b in $ROOT/bib/book return
<result> { $b/title } { $b/author } </result> }
</results>`
	// Weak DTD: titles stream, authors buffer until past(author,title)
	// (normalization turns {$b/author} into a loop; its on-first set must
	// cover title via H-threading and author via the dependency).
	weak := Print(schedule(t, weakBibDTD, q3))
	if !strings.Contains(weak, `on title as $title return { $title }`) {
		t.Errorf("intro/weak: titles must stream:\n%s", weak)
	}
	if !strings.Contains(weak, `on-first past(author,title) return { for $author in $b/author return { $author } }`) {
		t.Errorf("intro/weak: authors must wait for past(author,title):\n%s", weak)
	}
	// Use-case DTD: both stream; no buffering handlers inside book except
	// trailing strings.
	strong := Print(schedule(t, useCaseBibDTD, q3))
	if !strings.Contains(strong, `on title as $title return { $title }`) ||
		!strings.Contains(strong, `on author as $author return { $author }`) {
		t.Errorf("intro/strong: both title and author must stream:\n%s", strong)
	}
}

// TestRewriteExample34 covers the two cases of Figure 2 lines 5–11 for
// queries that output the stream variable's whole subtree: a simple
// dependency-free copy stays a simple expression (line 8, stream-copy),
// while anything with dependencies falls back to the Example 3.4 form
// { ps $ROOT: on-first past(*) return α } (line 10).
func TestRewriteExample34(t *testing.T) {
	f := schedule(t, weakBibDTD, `<all> { $ROOT } </all>`)
	if got, want := Print(f), `<all> { $ROOT } </all>`; got != want {
		t.Errorf("stream-copy = %s, want simple %s", got, want)
	}
	f2 := schedule(t, weakBibDTD, `{ if exists $ROOT/bib then head } { $ROOT }`)
	got := Print(f2)
	want := `{ ps $ROOT: on-first past(*) return { if exists $ROOT/bib then head } { $ROOT } }`
	if got != want {
		t.Errorf("fallback = %s, want %s", got, want)
	}
}

func TestRewriteRejectsOpenQueries(t *testing.T) {
	schema := dtd.MustParse(weakBibDTD)
	_, err := Schedule(schema, xq.MustParse(`{ $zz/bib }`))
	if err == nil {
		t.Fatal("Schedule accepted a query with free variable $zz")
	}
}

func TestRewriteEmptyQuery(t *testing.T) {
	f := schedule(t, weakBibDTD, ``)
	if _, ok := f.(*PS); !ok {
		t.Errorf("empty query = %T (%s), want PS", f, Print(f))
	}
}

func TestHSymb(t *testing.T) {
	h := []Handler{
		&On{Name: "bib", Var: "$b", Body: &Simple{Expr: &xq.Str{S: "x"}}},
		&OnFirst{Past: []string{"a", "c"}},
	}
	got := strings.Join(HSymb(h), ",")
	if got != "a,bib,c" {
		t.Errorf("HSymb = %s, want a,bib,c", got)
	}
}

func TestDependencies(t *testing.T) {
	e := xq.MustParse(`{ for $t in $b/title return { if $b/year/x = 1 then s } } { if $c/q = 2 then u }`)
	got := strings.Join(Dependencies("$b", e), ",")
	if got != "title,year" {
		t.Errorf("Dependencies($b) = %s, want title,year", got)
	}
	if got := Dependencies("$c", e); len(got) != 1 || got[0] != "q" {
		t.Errorf("Dependencies($c) = %v, want [q]", got)
	}
}

func TestIsSimple(t *testing.T) {
	cases := []struct {
		in     string
		simple bool
		u      string
	}{
		{`<a> { $x } </a> { if $x/b = 5 then <b>5</b> }`, true, "$x"}, // paper's example needs the condition after {$x}
		{`{ $x } { $y }`, false, ""},
		{`plain`, true, ""},
		{`{ if $z/a = 1 then s } { $x }`, true, "$x"},
		{`{ if $x/a = 1 then s } { $x }`, false, ""}, // condition on $u before {$u}
		{`{ if $x/a = 1 then { $x } }`, false, ""},   // condition on $u in β
		{`{ for $t in $x/a return { $t } }`, false, ""},
	}
	for _, c := range cases {
		u, ok := IsSimple(xq.MustParse(c.in))
		if ok != c.simple || u != c.u {
			t.Errorf("IsSimple(%q) = (%q,%v), want (%q,%v)", c.in, u, ok, c.u, c.simple)
		}
	}
}
