package sax

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func collect(t *testing.T, doc string, opt Options) []Event {
	t.Helper()
	var c Collector
	if err := ScanString(doc, &c, opt); err != nil {
		t.Fatalf("ScanString(%q): %v", doc, err)
	}
	return c.Events
}

func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScanBasic(t *testing.T) {
	got := collect(t, `<a><b>hi</b><c/></a>`, Options{})
	want := []Event{
		{StartElement, "a", ""},
		{StartElement, "b", ""},
		{Text, "", "hi"},
		{EndElement, "b", ""},
		{StartElement, "c", ""},
		{EndElement, "c", ""},
		{EndElement, "a", ""},
	}
	if !eventsEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestScanSkipsPrologCommentsPI(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>
<!-- leading comment -->
<a>x<!-- inner -->y<?pi data?></a>`
	got := collect(t, doc, Options{})
	want := []Event{
		{StartElement, "a", ""},
		{Text, "", "xy"}, // the comment and PI do not split the text node
		{EndElement, "a", ""},
	}
	if !eventsEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

// TestScanCoalescesSplitText: character data split by CDATA sections,
// comments and PIs is one Text event in the pull, batched and chunked
// paths alike, wherever the chunk boundaries fall. CDATA content is
// taken literally while the text around it is entity-decoded.
func TestScanCoalescesSplitText(t *testing.T) {
	cases := []struct{ doc, text string }{
		{`<a>0<![CDATA[0]]></a>`, "00"},
		{`<a>0<!--c-->0</a>`, "00"},
		{`<a>0<?pi x?>0</a>`, "00"},
		{`<a><![CDATA[x]]><![CDATA[y]]></a>`, "xy"},
		{`<a>&lt;<![CDATA[&lt;]]>&amp;<!-- - -->]]&gt;</a>`, "<&lt;&]]>"},
		{`<a><![CDATA[a]]]>b<![CDATA[]]]]></a>`, "a]b]]"},
		{"<a> <!--c--> </a>", "  "},
	}
	for _, c := range cases {
		want := []Event{{StartElement, "a", ""}, {Text, "", c.text}, {EndElement, "a", ""}}
		if got := collect(t, c.doc, Options{}); !eventsEqual(got, want) {
			t.Errorf("Scan(%q) = %v, want %v", c.doc, got, want)
		}
		var batched batchCollector
		if err := ScanBatchedString(c.doc, &batched, Options{}); err != nil || !eventsEqual(batched.Events, want) {
			t.Errorf("ScanBatched(%q) = %v, %v, want %v", c.doc, batched.Events, err, want)
		}
		for off := 0; off <= len(c.doc); off++ {
			if got, err := scanChunked(t, c.doc, off); err != nil || !eventsEqual(got, want) {
				t.Errorf("chunked split at %d of %q = %v, %v, want %v", off, c.doc, got, err, want)
			}
		}
	}
	// Whitespace-only text joined across a comment is still skipped.
	if got := collect(t, "<a> <!--c--> </a>", Options{SkipWhitespaceText: true}); len(got) != 2 {
		t.Errorf("whitespace text split by a comment was delivered: %v", got)
	}
}

func TestScanWhitespaceSkipping(t *testing.T) {
	doc := "<a>\n  <b>v</b>\n</a>"
	got := collect(t, doc, Options{SkipWhitespaceText: true})
	want := []Event{
		{StartElement, "a", ""},
		{StartElement, "b", ""},
		{Text, "", "v"},
		{EndElement, "b", ""},
		{EndElement, "a", ""},
	}
	if !eventsEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
	// Without the option the whitespace text nodes are preserved.
	got = collect(t, doc, Options{})
	if len(got) != 7 {
		t.Errorf("got %d events without skipping, want 7: %v", len(got), got)
	}
}

func TestScanEntities(t *testing.T) {
	got := collect(t, `<a>&lt;x&gt; &amp; &#65;&#x42; &quot;&apos; &unknown;</a>`, Options{})
	want := `<x> & AB "' &unknown;`
	if len(got) != 3 || got[1].Data != want {
		t.Errorf("text = %q, want %q (events %v)", got[1].Data, want, got)
	}
}

func TestScanCDATA(t *testing.T) {
	got := collect(t, `<a><![CDATA[<not> & markup]]]></a>`, Options{})
	want := []Event{
		{StartElement, "a", ""},
		{Text, "", "<not> & markup]"},
		{EndElement, "a", ""},
	}
	if !eventsEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestScanAttrsDropped(t *testing.T) {
	got := collect(t, `<person id="p0" x='y'><name>n</name></person>`, Options{})
	want := []Event{
		{StartElement, "person", ""},
		{StartElement, "name", ""},
		{Text, "", "n"},
		{EndElement, "name", ""},
		{EndElement, "person", ""},
	}
	if !eventsEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestScanAttrsToSubelements(t *testing.T) {
	got := collect(t, `<person id="p&amp;0"><name>n</name></person>`, Options{AttrsToSubelements: true})
	want := []Event{
		{StartElement, "person", ""},
		{StartElement, "person_id", ""},
		{Text, "", "p&0"},
		{EndElement, "person_id", ""},
		{StartElement, "name", ""},
		{Text, "", "n"},
		{EndElement, "name", ""},
		{EndElement, "person", ""},
	}
	if !eventsEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestScanAttrsToSubelementsSelfClosing(t *testing.T) {
	got := collect(t, `<edge from="1" to="2"/>`, Options{AttrsToSubelements: true})
	want := []Event{
		{StartElement, "edge", ""},
		{StartElement, "edge_from", ""},
		{Text, "", "1"},
		{EndElement, "edge_from", ""},
		{StartElement, "edge_to", ""},
		{Text, "", "2"},
		{EndElement, "edge_to", ""},
		{EndElement, "edge", ""},
	}
	if !eventsEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestScanErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a>",
		"<a></b>",
		"</a>",
		"<a></a><b></b>",
		"<a></a>trailing",
		"text<a></a>",
		"<a",
		"<a x></a>",
		"<a x=y></a>",
		`<a x="v></a>`,
		"<a/",
	}
	for _, doc := range bad {
		var c Collector
		err := ScanString(doc, &c, Options{})
		if err == nil {
			t.Errorf("ScanString(%q) succeeded, want error", doc)
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("ScanString(%q) error %T, want *SyntaxError", doc, err)
		}
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	err := ScanString("<a><b/></a>", HandlerFuncs{
		Start: func(name string) error {
			if name == "b" {
				return boom
			}
			return nil
		},
	}, Options{})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
	// The handler's error also wins over a syntax error a few tokens
	// later, which the tokenizer hits before the batch holding <b> is
	// delivered.
	err = ScanString("<a><b/><c></a>", HandlerFuncs{
		Start: func(name string) error {
			if name == "b" {
				return boom
			}
			return nil
		},
	}, Options{})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v over the later syntax error", err, boom)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	doc := `<a><b>hi &amp; lo</b><c></c>tail</a>`
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := ScanString(doc, w, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != doc {
		t.Errorf("round trip = %q, want %q", sb.String(), doc)
	}
	if w.BytesWritten() != int64(len(doc)) {
		t.Errorf("BytesWritten = %d, want %d", w.BytesWritten(), len(doc))
	}
}

func TestEscapeText(t *testing.T) {
	cases := map[string]string{
		"plain":  "plain",
		"a<b>&c": "a&lt;b&gt;&amp;c",
		"":       "",
	}
	for in, want := range cases {
		if got := EscapeText(in); got != want {
			t.Errorf("EscapeText(%q) = %q, want %q", in, got, want)
		}
	}
}

// genDoc builds a small random document from a shape seed and returns it
// along with the expected events.
func genDoc(shape []byte) (string, []Event) {
	var sb strings.Builder
	var want []Event
	names := []string{"a", "b", "c", "d"}
	var depth int
	var stack []string
	sb.WriteString("<root>")
	want = append(want, Event{StartElement, "root", ""})
	for _, s := range shape {
		switch s % 3 {
		case 0:
			n := names[int(s/3)%len(names)]
			sb.WriteString("<" + n + ">")
			want = append(want, Event{StartElement, n, ""})
			stack = append(stack, n)
			depth++
		case 1:
			if depth > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				depth--
				sb.WriteString("</" + n + ">")
				want = append(want, Event{EndElement, n, ""})
			}
		case 2:
			txt := "t" + string('0'+s%10)
			sb.WriteString(txt)
			if len(want) > 0 && want[len(want)-1].Kind == Text {
				want[len(want)-1].Data += txt
			} else {
				want = append(want, Event{Text, "", txt})
			}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		sb.WriteString("</" + stack[i] + ">")
		want = append(want, Event{EndElement, stack[i], ""})
	}
	sb.WriteString("</root>")
	want = append(want, Event{EndElement, "root", ""})
	return sb.String(), want
}

func TestScanPropertyRandomDocs(t *testing.T) {
	f := func(shape []byte) bool {
		doc, want := genDoc(shape)
		var c Collector
		if err := ScanString(doc, &c, Options{}); err != nil {
			t.Logf("doc %q: %v", doc, err)
			return false
		}
		return eventsEqual(c.Events, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScanPropertySerializeRescan(t *testing.T) {
	// Scanning, serializing and re-scanning must be a fixpoint.
	f := func(shape []byte) bool {
		doc, _ := genDoc(shape)
		var sb strings.Builder
		w := NewWriter(&sb)
		if err := ScanString(doc, w, Options{}); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		var c1, c2 Collector
		if err := ScanString(doc, &c1, Options{}); err != nil {
			return false
		}
		if err := ScanString(sb.String(), &c2, Options{}); err != nil {
			return false
		}
		return eventsEqual(c1.Events, c2.Events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// failAfterReader serves n bytes of r, then fails every Read with err.
type failAfterReader struct {
	r   io.Reader
	n   int
	err error
}

func (f *failAfterReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.r.Read(p)
	f.n -= n
	return n, err
}

// TestReadErrorNotMaskedAsSyntaxError: a reader failure mid-construct
// (mid-name here) must surface as itself — a canceled context or I/O
// error is a read failure, not malformed XML.
func TestReadErrorNotMaskedAsSyntaxError(t *testing.T) {
	boom := errors.New("boom: transport died")
	doc := `<root><child>text</child></root>`
	// Fail inside "<child": offsets 0..len pick various mid-construct
	// positions; every one must return the raw error.
	for cut := 1; cut < len(doc); cut++ {
		r := &failAfterReader{r: strings.NewReader(doc), n: cut, err: boom}
		err := Scan(r, HandlerFuncs{}, Options{})
		if !errors.Is(err, boom) {
			t.Fatalf("cut at %d: err = %v, want the reader's own error", cut, err)
		}
	}
}

// TestScanContextNilCtx: a nil context means "never canceled", matching
// mux.Run, and must not panic at the poll boundary — the document must
// therefore exceed the 64 KB input-block granularity so the poll site
// actually executes.
func TestScanContextNilCtx(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for sb.Len() <= 2*inputBlockSize {
		sb.WriteString("<a>x</a>")
	}
	sb.WriteString("</r>")
	if err := ScanContext(nil, strings.NewReader(sb.String()), HandlerFuncs{}, Options{}); err != nil {
		t.Fatal(err)
	}
}
