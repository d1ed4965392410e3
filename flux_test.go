package flux

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"flux/internal/dtd"
	"flux/internal/sax"
	"flux/internal/xmark"
)

const bibDTD = `
<!ELEMENT bib (book)*>
<!ELEMENT book (title,(author+|editor+),publisher,price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`

const bibDoc = `<bib>` +
	`<book><title>T1</title><author>A1</author><author>A2</author><publisher>P1</publisher><price>10</price></book>` +
	`<book><title>T2</title><editor>E1</editor><publisher>P2</publisher><price>20</price></book>` +
	`</bib>`

func TestPrepareAndRunAllEngines(t *testing.T) {
	q, err := Prepare(`<results>
{ for $b in $ROOT/bib/book return
<result> { $b/title } { $b/author } </result> }
</results>`, bibDTD)
	if err != nil {
		t.Fatal(err)
	}
	want := `<results>` +
		`<result><title>T1</title><author>A1</author><author>A2</author></result>` +
		`<result><title>T2</title></result>` +
		`</results>`
	for _, eng := range []Engine{FluX, Naive, Projection} {
		out, st, err := q.RunString(bibDoc, Options{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if out != want {
			t.Errorf("%v output = %q, want %q", eng, out, want)
		}
		if st.OutputBytes != int64(len(want)) {
			t.Errorf("%v OutputBytes = %d, want %d", eng, st.OutputBytes, len(want))
		}
	}
	// The strong DTD streams this query with zero buffering; the naive
	// engine holds the whole document.
	_, stFlux, _ := q.RunString(bibDoc, Options{Engine: FluX})
	_, stNaive, _ := q.RunString(bibDoc, Options{Engine: Naive})
	if stFlux.PeakBufferBytes != 0 {
		t.Errorf("flux buffered %d bytes, want 0", stFlux.PeakBufferBytes)
	}
	if stNaive.PeakBufferBytes == 0 {
		t.Error("naive engine reported zero materialization")
	}
}

func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare(`{ $x/bad }`, bibDTD); err == nil {
		t.Error("open query accepted")
	}
	if _, err := Prepare(`ok`, `<!ELEMENT a (b,)>`); err == nil {
		t.Error("malformed DTD accepted")
	}
	if _, err := Prepare(`{ for $b in`, bibDTD); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestExplainMentionsAllStages(t *testing.T) {
	q, err := Prepare(`{ for $b in /bib/book return { $b/title } }`, bibDTD)
	if err != nil {
		t.Fatal(err)
	}
	ex := q.Explain()
	for _, want := range []string{"normalized", "ps $ROOT", "buffer tree", "scheduled FluX"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
	if !strings.Contains(q.FluxText(), "on book as $b") {
		t.Errorf("FluxText = %s", q.FluxText())
	}
}

func TestAttrsToSubelements(t *testing.T) {
	d := `
<!ELEMENT people (person)*>
<!ELEMENT person (person_id,name)>
<!ELEMENT person_id (#PCDATA)>
<!ELEMENT name (#PCDATA)>
`
	q, err := Prepare(`{ for $p in /people/person where $p/person_id = 'p1' return { $p/name } }`, d)
	if err != nil {
		t.Fatal(err)
	}
	doc := `<people><person id="p0"><name>Ann</name></person><person id="p1"><name>Bob</name></person></people>`
	out, _, err := q.RunString(doc, Options{AttrsToSubelements: true})
	if err != nil {
		t.Fatal(err)
	}
	if out != `<name>Bob</name>` {
		t.Errorf("out = %q", out)
	}
}

func TestValidateDocument(t *testing.T) {
	q, err := Prepare(`ok`, bibDTD)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.ValidateDocument(strings.NewReader(bibDoc), Options{}); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
	if err := q.ValidateDocument(strings.NewReader(`<bib><zap/></bib>`), Options{}); err == nil {
		t.Error("invalid doc accepted")
	}
}

// TestErrorPrecedence: a document that violates the DTD at one event
// and is malformed a few tokens later — both inside one scanner batch.
// ValidateDocument consumes events through sax.Scan's Handler contract,
// where the earlier event's error wins; the engine and the mux consume
// batches, where the scan's own error outranks a handler error raised
// while the events before it are flushed.
func TestErrorPrecedence(t *testing.T) {
	const doc = `<bib><zap/><book></bib>`
	q, err := Prepare(`<out> { for $b in /bib/book return {$b/title} } </out>`, bibDTD)
	if err != nil {
		t.Fatal(err)
	}
	var val *dtd.ValidationError
	if err := q.ValidateDocument(strings.NewReader(doc), Options{}); !errors.As(err, &val) {
		t.Errorf("ValidateDocument err = %v, want the *dtd.ValidationError raised at <zap>", err)
	}
	var syn *sax.SyntaxError
	if _, err := q.Run(strings.NewReader(doc), io.Discard, Options{}); !errors.As(err, &syn) {
		t.Errorf("Run err = %v, want the scan's *sax.SyntaxError", err)
	}
	// Shared scan: the sibling that tolerates <zap> inherits the stream's
	// syntax error, which is also what RunAll returns; the strict query
	// keeps its own, earlier failure.
	lax, err := Prepare(`<out> { for $b in /bib/book return {$b/title} } </out>`,
		strings.Replace(bibDTD, "(book)*", "(zap|book)*", 1)+"<!ELEMENT zap EMPTY>")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAll([]*Query{q, lax}, strings.NewReader(doc), Options{}, io.Discard, io.Discard)
	if !errors.As(err, &syn) {
		t.Errorf("RunAll err = %v, want the scan's *sax.SyntaxError", err)
	}
	if res[0].Err == nil || errors.As(res[0].Err, &syn) {
		t.Errorf("strict query err = %v, want its own validation failure", res[0].Err)
	}
	if !errors.As(res[1].Err, &syn) {
		t.Errorf("lax query err = %v, want the inherited *sax.SyntaxError", res[1].Err)
	}
}

// TestXMarkEndToEnd runs all five Figure 4 queries on a generated
// document through all three engines and requires identical output, with
// the FluX engine using dramatically less memory.
func TestXMarkEndToEnd(t *testing.T) {
	var doc strings.Builder
	if _, err := xmark.Generate(&doc, xmark.GenOptions{Scale: 0.002, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	for _, name := range xmark.QueryNames {
		q, err := Prepare(xmark.Queries[name], xmark.DTD)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outFlux, stFlux, err := q.RunString(doc.String(), Options{Engine: FluX})
		if err != nil {
			t.Fatalf("%s flux: %v", name, err)
		}
		outNaive, stNaive, err := q.RunString(doc.String(), Options{Engine: Naive})
		if err != nil {
			t.Fatalf("%s naive: %v", name, err)
		}
		outProj, stProj, err := q.RunString(doc.String(), Options{Engine: Projection})
		if err != nil {
			t.Fatalf("%s projection: %v", name, err)
		}
		if outFlux != outNaive {
			t.Errorf("%s: flux and naive outputs differ (%d vs %d bytes)", name, len(outFlux), len(outNaive))
			continue
		}
		if outProj != outNaive {
			t.Errorf("%s: projection and naive outputs differ", name)
		}
		if len(outFlux) == 0 {
			t.Errorf("%s: produced no output; workload is degenerate", name)
		}
		// Figure 4 shape: flux ≤ projection ≤ naive in memory, with the
		// streaming queries at (near) zero.
		if stFlux.PeakBufferBytes > stProj.PeakBufferBytes {
			t.Errorf("%s: flux %d > projection %d buffered bytes", name, stFlux.PeakBufferBytes, stProj.PeakBufferBytes)
		}
		if stProj.PeakBufferBytes > stNaive.PeakBufferBytes {
			t.Errorf("%s: projection %d > naive %d buffered bytes", name, stProj.PeakBufferBytes, stNaive.PeakBufferBytes)
		}
		switch name {
		case "q1", "q13":
			if stFlux.PeakBufferBytes != 0 {
				t.Errorf("%s: flux buffered %d bytes, want 0 (on-the-fly)", name, stFlux.PeakBufferBytes)
			}
		case "q20":
			if stFlux.PeakBufferBytes == 0 || stFlux.PeakBufferBytes > 2048 {
				t.Errorf("%s: flux buffered %d bytes, want a single person", name, stFlux.PeakBufferBytes)
			}
		case "q8", "q11":
			if stFlux.PeakBufferBytes == 0 {
				t.Errorf("%s: join must buffer", name)
			}
			if stFlux.PeakBufferBytes*4 > int64(doc.Len()) {
				t.Errorf("%s: flux buffered %d of %d document bytes; projection ineffective",
					name, stFlux.PeakBufferBytes, doc.Len())
			}
		}
	}
}

// TestPrepareFlux runs a hand-written FluX query (the paper's surface
// syntax) end to end.
func TestPrepareFlux(t *testing.T) {
	q, err := PrepareFlux(`{ ps $ROOT: on bib as $bib return
		{ ps $bib: on book as $b return
			{ ps $b: on title as $t return { $t } } };
		on-first past(bib) return <done/> }`, bibDTD)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := q.RunString(bibDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != `<title>T1</title><title>T2</title><done/>` {
		t.Errorf("out = %q", out)
	}
	if st.PeakBufferBytes != 0 {
		t.Errorf("buffered %d bytes, want 0", st.PeakBufferBytes)
	}
	// Baselines are refused for FluX-syntax queries.
	if _, _, err := q.RunString(bibDoc, Options{Engine: Naive}); err == nil {
		t.Error("naive run of FluX-syntax query should fail")
	}
	// Unsafe hand-written queries are rejected.
	if _, err := PrepareFlux(`{ ps $ROOT: on bib as $bib return
		{ ps $bib: on book as $b return
			{ ps $b: on-first past(title) return { for $a in $b/author return { $a } } } } }`, bibDTD); err == nil {
		t.Error("unsafe FluX query accepted")
	}
}

func TestBufferReport(t *testing.T) {
	// Fully streaming query under the strong DTD.
	q, err := Prepare(`{ for $b in /bib/book return { $b/title } }`, bibDTD)
	if err != nil {
		t.Fatal(err)
	}
	rep := q.BufferReport()
	if !rep.Streaming || len(rep.Scopes) != 0 {
		t.Errorf("expected fully streaming: %+v\n%s", rep, rep)
	}
	// Buffering query: whole person per instance (XMark Q20 pattern).
	q2, err := Prepare(xmark.Queries["q20"], xmark.DTD)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := q2.BufferReport()
	if rep2.Streaming || len(rep2.Scopes) != 1 {
		t.Fatalf("q20 report = %+v", rep2)
	}
	s := rep2.Scopes[0]
	if s.Elem != "person" || !s.PerInstance || len(s.Paths) != 1 || s.Paths[0] != ". •" {
		t.Errorf("q20 scope = %+v", s)
	}
	if !strings.Contains(rep2.String(), "freed per instance") {
		t.Errorf("report text: %s", rep2.String())
	}
	// Join query: buffers at the site scope, which repeats never (one site
	// per document) but is still per-instance.
	q3, err := Prepare(xmark.Queries["q8"], xmark.DTD)
	if err != nil {
		t.Fatal(err)
	}
	rep3 := q3.BufferReport()
	if rep3.Streaming {
		t.Error("q8 cannot be streaming")
	}
	var found bool
	for _, sc := range rep3.Scopes {
		for _, p := range sc.Paths {
			if strings.HasPrefix(p, "closed_auctions/closed_auction") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("q8 report misses closed_auction buffering: %+v", rep3)
	}
}

// TestExample45F1Prime runs F1' of Example 4.5: with year occurring
// exactly once per book, Figure 2 buffers the year, whose value the guard
// compares, until it closes, and streams the titles. It also runs a
// query that outputs the year twice with text between: the first copy
// streams under on year, which holds year open, so the second loop waits
// for on-first past(year) and buffers one year. Neither peak grows with
// the number of books.
func TestExample45F1Prime(t *testing.T) {
	d := `
<!ELEMENT bib (book)*>
<!ELEMENT book (publisher,year,title*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`
	books := func(n int) string {
		var b strings.Builder
		b.WriteString("<bib>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<book><publisher>AW</publisher><year>%d</year><title>T%d</title><title>U</title></book>", 1988+i%8, i)
		}
		b.WriteString("</bib>")
		return b.String()
	}
	for _, c := range []struct{ name, query, want, unwanted string }{
		{"F1'", `<bib>
{ for $b in $ROOT/bib/book
  where $b/publisher = 'AW' and $b/year > 1991
  return <book> {$b/year} {$b/title} </book> }
</bib>`, "<year>1994</year>", "<year>1990</year>"},
		{"year twice", `<r> { for $b in $ROOT/bib/book return { $b/year } x { $b/year } } </r>`,
			"<year>1990</year>x<year>1990</year>", "<title>"},
	} {
		q, err := Prepare(c.query, d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var peaks []int64
		for _, n := range []int{10, 1000} {
			doc := books(n)
			outF, st, err := q.RunString(doc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			outN, _, err := q.RunString(doc, Options{Engine: Naive})
			if err != nil {
				t.Fatal(err)
			}
			if outF != outN {
				t.Fatalf("%s, %d books: flux differs from oracle:\n flux: %q\n dom:  %q", c.name, n, outF, outN)
			}
			if !strings.Contains(outF, c.want) || strings.Contains(outF, c.unwanted) {
				t.Fatalf("%s, %d books: wrong result: %q", c.name, n, outF)
			}
			peaks = append(peaks, st.PeakBufferBytes)
		}
		if peaks[0] != peaks[1] {
			t.Errorf("%s: peak buffer grows with the document: %d bytes on 10 books, %d on 1000\n%s",
				c.name, peaks[0], peaks[1], q.FluxIndented())
		} else {
			t.Logf("%s peak buffer: %d bytes on 10 and 1000 books", c.name, peaks[0])
		}
	}
}
